"""Container-mounted exposition servlets: ``/_metrics`` and ``/_traces``.

These are ordinary :class:`~repro.web.servlet.HttpServlet` subclasses so
the existing container, WSGI adapter and dev server serve them without
any new plumbing.  They are *infrastructure* servlets: mount them with
:func:`mount_observability`, which also marks their URIs uncacheable in
the given semantics registry -- a cached metrics page would defeat the
point -- and never pass them to the weaver as application classes.
"""

from __future__ import annotations

from repro.obs.exposition import render_metrics, render_trace, render_traces
from repro.obs.histogram import MetricsHub
from repro.obs.tracer import Tracer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

METRICS_URI = "/_metrics"
TRACES_URI = "/_traces"


class MetricsServlet(HttpServlet):
    """Serves the Prometheus text exposition of the metrics hub.

    ``stats`` (the facade's :class:`~repro.cluster.router.ClusterStats`,
    ``awc.stats``) adds the column-lineage pruning counters and the
    membership state set, snapshotted at serve time.
    """

    def __init__(
        self,
        hub: MetricsHub,
        tracer: Tracer | None = None,
        stats=None,
    ) -> None:
        self.hub = hub
        self.tracer = tracer
        self.stats = stats

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        response.set_header("Content-Type", "text/plain; version=0.0.4")
        snapshot = self.stats.snapshot() if self.stats is not None else None
        response.write(
            render_metrics(self.hub, self.tracer, cache_snapshot=snapshot)
        )


class TracesServlet(HttpServlet):
    """Serves recent traces; ``?trace=<id>`` narrows to one trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        response.set_header("Content-Type", "text/plain")
        trace_id = request.get_parameter("trace")
        if trace_id is not None:
            spans = self.tracer.trace(trace_id)
            if not spans:
                response.send_error(404, f"no trace {trace_id}")
                return
            response.write(render_trace(trace_id, spans) + "\n")
            return
        limit = request.get_int("limit")
        response.write(render_traces(self.tracer, limit=limit))


def mount_observability(
    container,
    hub: MetricsHub,
    tracer: Tracer,
    semantics=None,
    stats=None,
) -> dict[str, HttpServlet]:
    """Register both exposition servlets on ``container``.

    ``semantics`` (a :class:`~repro.cache.semantics.SemanticsRegistry`)
    is optional but recommended whenever a cache is installed: the
    exposition URIs are marked uncacheable so a woven read aspect can
    never serve yesterday's metrics.  ``stats`` (the installed cache's
    stats object) adds the column-lineage pruning counters to
    ``/_metrics``.
    """
    servlets: dict[str, HttpServlet] = {
        METRICS_URI: MetricsServlet(hub, tracer, stats=stats),
        TRACES_URI: TracesServlet(tracer),
    }
    for uri, servlet in servlets.items():
        container.register(uri, servlet)
        if semantics is not None:
            semantics.mark_uncacheable(uri)
    return servlets
