"""Plain-text rendering of experiment results."""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned text table with a title rule."""
    materialised = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(title: str, points: Iterable[tuple[object, object]]) -> str:
    """Render an (x, y) series as two columns."""
    return render_table(title, ["x", "y"], [list(p) for p in points])


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_doom_templates(title: str, snapshot: dict) -> str:
    """Per-write-template invalidation churn, busiest template first.

    Renders ``dooms_by_template`` from a facade snapshot's
    ``"cluster"`` aggregate (:meth:`ClusterStats.snapshot`): which
    UPDATE/INSERT/DELETE templates doomed how many cached pages.
    """
    dooms = snapshot["cluster"]["dooms_by_template"]
    if not dooms:
        return f"{title}\n(no invalidations)"
    rows = [
        [template, count]
        for template, count in sorted(
            dooms.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    return render_table(title, ["write template", "pages doomed"], rows)


def render_membership(title: str, membership: dict) -> str:
    """Render a ``GossipMembership.snapshot()``: one row per peer.

    The router-view table behind routing decisions: gossip state,
    heartbeat counter, and how long the counter has been silent.
    """
    if not membership:
        return f"{title}\n(no peers registered)"
    rows = [
        [
            peer,
            view["state"],
            view["counter"],
            round(view["silence_seconds"], 3),
        ]
        for peer, view in sorted(membership.items())
    ]
    return render_table(
        title, ["node", "state", "heartbeat", "silent s"], rows
    )


#: The invalidation-protocol work counters folded into experiment
#: reports: how much pair analysis the dependency index avoided, how
#: many pre-image extra queries ran, and how many duplicate writes the
#: bus dropped before broadcast.
PROTOCOL_COUNTERS = (
    "pair_analyses",
    "templates_skipped_by_index",
    "instances_skipped_by_index",
    "templates_skipped_by_lineage",
    "column_plans_built",
    "extra_queries",
    "writes_deduped",
)


def render_protocol_counters(title: str, snapshot: dict) -> str:
    """Render the invalidation-protocol work counters as a table.

    Takes a facade snapshot (:meth:`ClusterStats.snapshot`: ``{"cluster":
    ..., "nodes": ..., "bus": ...}``); ``writes_deduped`` is read from
    the bus, every other counter from the aggregate, and a counter
    missing from both renders as 0.
    """
    counters, bus = snapshot["cluster"], snapshot["bus"]
    rows = []
    for name in PROTOCOL_COUNTERS:
        value = counters.get(name, bus.get(name, 0))
        rows.append([name, value])
    return render_table(title, ["counter", "value"], rows)


def render_histogram_summary(title: str, hub) -> str:
    """Render a :class:`~repro.obs.histogram.MetricsHub` as a table.

    One row per ``(phase, request type)`` with derived percentiles in
    milliseconds -- the latency companion to the counter tables.
    """
    rows = hub.summary_rows()
    if not rows:
        return f"{title}\n(no samples)"
    return render_table(
        title,
        ["phase", "request", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        rows,
    )


def render_chart(
    title: str,
    series: dict[str, list[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    log_y: bool = False,
) -> str:
    """Render (x, y) series as an ASCII scatter chart.

    Used by the benchmark suite so the regenerated figures *look* like
    figures: one plot character per series, shared axes, optional log-y
    (Figure 14 is log scale in the paper).
    """
    import math

    markers = "ox+*#@"
    points = [
        (x, y) for values in series.values() for x, y in values
    ]
    if not points:
        return f"{title}\n(no data)"

    def transform(y: float) -> float:
        if log_y:
            return math.log10(max(y, 1e-9))
        return y

    xs = [x for x, _y in points]
    ys = [transform(y) for _x, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (name, values) in zip(markers, series.items()):
        for x, y in values:
            column = int((x - x_low) / x_span * (width - 1))
            row = int((transform(y) - y_low) / y_span * (height - 1))
            grid[height - 1 - row][column] = marker

    lines = [title, "=" * len(title)]
    y_label_high = f"{10**y_high:.4g}" if log_y else f"{y_high:.4g}"
    y_label_low = f"{10**y_low:.4g}" if log_y else f"{y_low:.4g}"
    for i, row_cells in enumerate(grid):
        prefix = y_label_high if i == 0 else (
            y_label_low if i == height - 1 else ""
        )
        lines.append(f"{prefix:>10} |" + "".join(row_cells))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(f"{'':>11} {x_low:<10.4g}{'':^{max(0, width - 22)}}{x_high:>10.4g}")
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(markers, series)
    )
    lines.append(f"{'':>11} {legend}")
    if log_y:
        lines.append(f"{'':>11} (log y)")
    return "\n".join(lines)
