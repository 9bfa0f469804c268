"""The observability facade: one object that wires the whole subsystem.

Weaving happens in **two weaves** because one method may only be woven
by one weaver:

1. The application-facing join points (servlet handlers, the DB-API
   driver) are *shared* with the caching aspects, so the observability
   aspects must ride the same :class:`~repro.aop.weaver.Weaver` -- pass
   :attr:`Observability.aspects` as ``extra_aspects`` to
   ``AutoWebCache.install``.  Aspect
   precedence (-10/-5 vs the cache aspects' 10/20) then makes tracing
   the outermost layer regardless of registration order.
2. The cache infrastructure classes (the router facade, the bus and the
   node class) are never touched by the caching weaver, so
   :meth:`Observability.weave_infrastructure` wraps them with a second,
   private weaver.

Typical use::

    obs = Observability()
    awc = AutoWebCache()
    awc.install(container.servlet_classes, extra_aspects=obs.aspects)
    obs.weave_infrastructure()
    obs.mount(container, semantics=awc.semantics)
    ...  # serve traffic
    obs.unweave_infrastructure()
    awc.uninstall()
"""

from __future__ import annotations

from typing import Iterable

from repro.aop.weaver import WeaveReport, Weaver
from repro.errors import WeavingError
from repro.obs.aspects import MetricsAspect, TracingAspect
from repro.obs.histogram import DEFAULT_BOUNDS, MetricsHub
from repro.obs.tracer import Tracer


def infrastructure_classes() -> tuple[type, ...]:
    """The cache-infrastructure classes: the router facade, the bus and
    the node class, so lookup/insert/invalidate and publish/deliver
    join points are observable on one node as on many."""
    from repro.cluster.bus import InvalidationBus
    from repro.cluster.node import CacheNode
    from repro.cluster.router import ClusterRouter

    return (ClusterRouter, InvalidationBus, CacheNode)


class Observability:
    """Tracer + metrics hub + the two aspects that feed them."""

    def __init__(
        self,
        capacity: int = 128,
        enabled: bool = True,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        self.tracer = Tracer(capacity=capacity, enabled=enabled)
        self.hub = MetricsHub(bounds)
        self.tracing_aspect = TracingAspect(self.tracer, enabled=enabled)
        self.metrics_aspect = MetricsAspect(self.hub, enabled=enabled)
        self._infra_weaver: Weaver | None = None
        self.infra_report: WeaveReport | None = None

    @property
    def aspects(self) -> tuple[TracingAspect, MetricsAspect]:
        """Pass these as ``extra_aspects`` to the cache facade's install."""
        return (self.tracing_aspect, self.metrics_aspect)

    # -- runtime switch ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.tracing_aspect.enabled

    def enable(self) -> None:
        """Turn span recording and histogram feeding on (weave stays)."""
        self.tracer.enabled = True
        self.tracing_aspect.enabled = True
        self.metrics_aspect.enabled = True

    def disable(self) -> None:
        """Leave the weave in place but make every advice a pass-through.

        This is the configuration the overhead benchmark measures: the
        dispatcher layers still run, the observability bodies do not.
        """
        self.tracer.enabled = False
        self.tracing_aspect.enabled = False
        self.metrics_aspect.enabled = False

    # -- infrastructure weaving --------------------------------------------------------

    def weave_infrastructure(
        self, classes: Iterable[type] | None = None
    ) -> WeaveReport:
        """Weave the aspects over the cache infrastructure classes:
        ``classes``, by default :func:`infrastructure_classes`."""
        if self._infra_weaver is not None:
            raise WeavingError("observability infrastructure is already woven")
        if classes is None:
            classes = infrastructure_classes()
        weaver = Weaver()
        weaver.add_aspect(self.tracing_aspect)
        weaver.add_aspect(self.metrics_aspect)
        self.infra_report = weaver.weave(list(classes))
        self._infra_weaver = weaver
        return self.infra_report

    def unweave_infrastructure(self) -> None:
        if self._infra_weaver is None:
            return
        self._infra_weaver.unweave()
        self._infra_weaver = None

    # -- exposition --------------------------------------------------------------------

    def mount(self, container, semantics=None, stats=None) -> dict[str, object]:
        """Register ``/_metrics`` and ``/_traces`` on ``container``.

        Pass the cache facade's ``stats`` to expose the column-lineage
        pruning counters alongside the latency histograms.
        """
        from repro.obs.servlets import mount_observability

        return mount_observability(
            container, self.hub, self.tracer, semantics=semantics, stats=stats
        )

    def reset(self) -> None:
        """Drop recorded traces and histograms (weaves untouched)."""
        self.tracer.reset()
        self.hub.reset()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unweave_infrastructure()
