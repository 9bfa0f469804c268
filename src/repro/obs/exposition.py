"""Text exposition: Prometheus-style metrics and human-readable traces.

Two render targets, both plain text so they can be served by a tiny
container servlet, printed by the CLI, or diffed in tests:

- :func:`render_metrics` emits the classic Prometheus histogram shape
  (``_bucket`` series with cumulative counts and ``le`` labels, plus
  ``_sum``/``_count``) for every ``(phase, request)`` histogram in a
  :class:`~repro.obs.histogram.MetricsHub`, and gauge/counter lines for
  the tracer's buffer accounting.
- :func:`render_traces` reassembles each buffered trace into its span
  tree (parent links -> indentation) with per-span durations, status
  and tags -- the diagnosis view.
"""

from __future__ import annotations

import math

from repro.obs.histogram import MetricsHub
from repro.obs.trace import Span
from repro.obs.tracer import Tracer

HISTOGRAM_METRIC = "repro_phase_latency_seconds"
LINEAGE_METRIC = "repro_lineage_prune_total"
WITNESS_METRIC = "repro_witness_skips_total"
PARTNER_SKIPS_METRIC = "repro_partner_skips_total"
PARTNER_PROBES_METRIC = "repro_partner_probes_total"
MEMBERSHIP_METRIC = "repro_membership_state"
MEMBERSHIP_SILENCE_METRIC = "repro_membership_silence_seconds"
MEMBERSHIP_STATES = ("alive", "suspect", "dead")


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    text = f"{bound:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_metrics(
    hub: MetricsHub,
    tracer: Tracer | None = None,
    cache_snapshot: dict | None = None,
) -> str:
    """The ``/_metrics`` document: Prometheus text exposition format.

    ``cache_snapshot`` (the facade's ``{"cluster": ..., "bus": ...,
    "membership": ...}`` snapshot, :meth:`~repro.cluster.router.
    ClusterStats.snapshot`) adds, from its ``"cluster"`` aggregate, the
    column-lineage pruning counters as a labelled counter family, the
    row-witness skip counter and the partner-probe counters, and the
    router-view membership state set.
    """
    lines = [
        f"# HELP {HISTOGRAM_METRIC} Latency of woven phases by request type.",
        f"# TYPE {HISTOGRAM_METRIC} histogram",
    ]
    for (phase, request_type), histogram in hub.items():
        labels = (
            f'phase="{_escape_label(phase)}",'
            f'request="{_escape_label(request_type)}"'
        )
        snapshot = histogram.snapshot()
        for bound, cumulative in histogram.buckets():
            lines.append(
                f"{HISTOGRAM_METRIC}_bucket{{{labels},"
                f'le="{_format_bound(bound)}"}} {cumulative}'
            )
        lines.append(f"{HISTOGRAM_METRIC}_sum{{{labels}}} {snapshot['sum']:.9f}")
        lines.append(f"{HISTOGRAM_METRIC}_count{{{labels}}} {snapshot['count']}")
    if tracer is not None:
        lines += [
            "# HELP repro_tracer_spans_recorded_total Spans recorded since start.",
            "# TYPE repro_tracer_spans_recorded_total counter",
            f"repro_tracer_spans_recorded_total {tracer.spans_recorded}",
            "# HELP repro_tracer_traces_buffered Traces currently in the ring buffer.",
            "# TYPE repro_tracer_traces_buffered gauge",
            f"repro_tracer_traces_buffered {len(tracer)}",
            "# HELP repro_tracer_traces_evicted_total Traces dropped by the ring buffer.",
            "# TYPE repro_tracer_traces_evicted_total counter",
            f"repro_tracer_traces_evicted_total {tracer.traces_evicted}",
        ]
    if cache_snapshot is not None:
        stats = cache_snapshot["cluster"]
        lines += [
            f"# HELP {LINEAGE_METRIC} Column-lineage pruning: candidate "
            "templates skipped and prune rules built.",
            f"# TYPE {LINEAGE_METRIC} counter",
        ]
        for key, event in (
            ("templates_skipped_by_lineage", "template_skipped"),
            ("column_plans_built", "plan_built"),
        ):
            lines.append(
                f'{LINEAGE_METRIC}{{event="{event}"}} {stats.get(key, 0)}'
            )
        lines += [
            f"# HELP {WITNESS_METRIC} Cached instances a write would have "
            "doomed but their row witness excused.",
            f"# TYPE {WITNESS_METRIC} counter",
            f"{WITNESS_METRIC} {stats.get('witness_skips', 0)}",
            f"# HELP {PARTNER_SKIPS_METRIC} Cached instances an INSERT would "
            "have doomed but its partner probes excused.",
            f"# TYPE {PARTNER_SKIPS_METRIC} counter",
            f"{PARTNER_SKIPS_METRIC} {stats.get('partner_skips', 0)}",
            f"# HELP {PARTNER_PROBES_METRIC} Partner-table SELECTs INSERTs "
            "ran for the partner-probe test.",
            f"# TYPE {PARTNER_PROBES_METRIC} counter",
            f"{PARTNER_PROBES_METRIC} {stats.get('partner_probes', 0)}",
        ]
        lines += _render_membership(cache_snapshot["membership"])
    return "\n".join(lines) + "\n"


def _render_membership(membership: dict) -> list[str]:
    """The router-view membership state set (empty with no members).

    Follows the Prometheus *state set* idiom: one series per (node,
    state) pair, valued 1 on the series matching the node's current
    router-view state and 0 elsewhere, so dashboards can ``max by
    (state)`` without string-valued labels.
    """
    if not membership:
        return []
    lines = [
        f"# HELP {MEMBERSHIP_METRIC} Router-view gossip membership "
        "(1 on the series matching the node's state).",
        f"# TYPE {MEMBERSHIP_METRIC} gauge",
    ]
    for node, view in sorted(membership.items()):
        for state in MEMBERSHIP_STATES:
            value = 1 if view["state"] == state else 0
            lines.append(
                f'{MEMBERSHIP_METRIC}{{node="{_escape_label(node)}",'
                f'state="{state}"}} {value}'
            )
    lines += [
        f"# HELP {MEMBERSHIP_SILENCE_METRIC} Seconds since the "
        "router last saw the node's heartbeat counter advance.",
        f"# TYPE {MEMBERSHIP_SILENCE_METRIC} gauge",
    ]
    for node, view in sorted(membership.items()):
        lines.append(
            f"{MEMBERSHIP_SILENCE_METRIC}"
            f'{{node="{_escape_label(node)}"}} '
            f"{view['silence_seconds']:.6f}"
        )
    return lines


def _span_line(span: Span, depth: int) -> str:
    duration = f"{span.duration * 1000:9.3f}ms" if span.finished else "     open"
    tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
    line = f"{duration}  {'  ' * depth}{span.name} [{span.status}]"
    if tags:
        line += f" {tags}"
    if span.error:
        line += f" !{span.error}"
    return line


def render_trace(trace_id: str, spans: list[Span]) -> str:
    """One trace as an indented span tree (orphans render at the root).

    A span whose parent is not in the buffer -- the parent ran on
    another node, or the trace was started by a bare correlation
    context (:func:`~repro.obs.trace.open_root`) -- still belongs to
    the trace; it is shown at depth zero rather than dropped.
    """
    by_parent: dict[str | None, list[Span]] = {}
    span_ids = {span.span_id for span in spans}
    for span in sorted(spans, key=lambda s: s.start):
        parent = span.parent_id if span.parent_id in span_ids else None
        by_parent.setdefault(parent, []).append(span)

    total = sum(span.duration or 0.0 for span in by_parent.get(None, []))
    lines = [f"trace {trace_id}  spans={len(spans)}  roots={total * 1000:.3f}ms"]

    def walk(parent_id: str | None, depth: int) -> None:
        for span in by_parent.get(parent_id, []):
            lines.append(_span_line(span, depth))
            walk(span.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def render_traces(tracer: Tracer, limit: int | None = None) -> str:
    """The ``/_traces`` document: most recent traces first."""
    traces = list(reversed(tracer.traces()))
    if limit is not None:
        traces = traces[:limit]
    if not traces:
        return "no traces recorded\n"
    blocks = [render_trace(trace_id, spans) for trace_id, spans in traces]
    return "\n\n".join(blocks) + "\n"
