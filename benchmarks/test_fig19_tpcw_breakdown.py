"""Figure 19: per-request response-time breakdown for TPC-W.

Paper shapes at 400 clients: BestSellers, ExecuteSearch and NewProducts
carry high miss penalties compensated by hits; SearchRequest and
HomeInteraction are cheap, so marking them uncacheable "does not impact
the performance of AutoWebCache a great deal".
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_per_request_breakdown
from repro.harness.reporting import render_table
from benchmarks.test_fig17_tpcw_per_request import FIG17_TYPES


def _run():
    return run_per_request_breakdown(
        RunSpec(
            app="tpcw",
            cached=True,
            best_seller_window=True,
            defaults=BENCH_DEFAULTS,
        ),
        400,
    )


def test_fig19_tpcw_breakdown(benchmark, figure_report):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)
    metrics = outcome.result.metrics
    rows = []
    overall_ms = {}
    for uri, label in sorted(FIG17_TYPES.items(), key=lambda kv: kv[1]):
        series = metrics.by_uri.get(uri)
        misses = metrics.by_uri_misses.get(uri)
        if series is None or series.count == 0:
            continue
        mean_ms = series.mean * 1000.0
        extra_ms = max(0.0, misses.mean * 1000.0 - mean_ms) if misses else 0.0
        overall_ms[uri] = mean_ms
        rows.append([label, round(mean_ms, 2), round(extra_ms, 2)])
    figure_report(
        "fig19_tpcw_breakdown",
        render_table(
            "Figure 19: TPC-W response-time breakdown (400 clients) "
            "[profile: PAPER]",
            ["request", "overall avg (ms)", "extra time for a miss (ms)"],
            rows,
        ),
    )
    # The uncacheable pages are cheap relative to the heavy reads, which
    # is why marking them uncacheable costs little.
    assert overall_ms["/tpcw/search_request"] < overall_ms["/tpcw/best_sellers"]
    # BestSellers without its cache would be the heavyweight: its raw
    # (miss) cost dominates the cheap interactions.
    best_misses = metrics.by_uri_misses.get("/tpcw/best_sellers")
    if best_misses and best_misses.count:
        assert best_misses.mean * 1000.0 > overall_ms["/tpcw/order_inquiry"]
