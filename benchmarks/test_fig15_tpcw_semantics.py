"""Figure 15: TPC-W cache improvement from application semantics.

The BestSeller interaction may serve data up to 30 seconds stale (TPC-W
spec 3.1.4.1/6.3.3.1).  Marking its pages cacheable for the full window
removes the constant invalidation traffic the order stream causes.
Paper shape: the semantics-optimised curve sits at or below plain
AutoWebCache, with the gap visible at high load.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS, TPCW_CLIENTS
from repro.harness.experiments import RunSpec, run_response_time_curve
from repro.harness.reporting import render_chart, render_table


def _run():
    plain = run_response_time_curve(
        RunSpec(app="tpcw", cached=True, defaults=BENCH_DEFAULTS),
        TPCW_CLIENTS,
    )
    window = run_response_time_curve(
        RunSpec(
            app="tpcw",
            cached=True,
            best_seller_window=True,
            defaults=BENCH_DEFAULTS,
        ),
        TPCW_CLIENTS,
    )
    return plain, window


def test_fig15_tpcw_semantics(benchmark, figure_report):
    plain, window = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for pc, wc in zip(plain, window):
        best_sellers_plain = pc.result.metrics.by_uri.get("/tpcw/best_sellers")
        best_sellers_window = wc.result.metrics.by_uri.get("/tpcw/best_sellers")
        rows.append(
            [
                pc.n_clients,
                round(pc.mean_ms, 1),
                round(wc.mean_ms, 1),
                round(1000 * best_sellers_plain.mean, 1)
                if best_sellers_plain
                else "-",
                round(1000 * best_sellers_window.mean, 1)
                if best_sellers_window
                else "-",
            ]
        )
    table = render_table(
        "Figure 15: TPC-W semantics optimisation (BestSeller 30 s window) "
        "[profile: PAPER]",
        [
            "clients",
            "AutoWebCache (ms)",
            "+semantics (ms)",
            "BestSeller mean (ms)",
            "BestSeller+sem (ms)",
        ],
        rows,
    )
    chart = render_chart(
        "Figure 15 (plot)",
        {
            "AutoWebCache": [(o.n_clients, o.mean_ms) for o in plain],
            "Optimization for Semantics": [
                (o.n_clients, o.mean_ms) for o in window
            ],
        },
        log_y=True,
    )
    figure_report("fig15_tpcw_semantics", table + "\n\n" + chart)
    # At the highest load the window clearly helps overall.
    assert window[-1].mean_ms < plain[-1].mean_ms
    # And the BestSeller interaction itself improves.
    bs_plain = plain[-1].result.metrics.by_uri["/tpcw/best_sellers"].mean
    bs_window = window[-1].result.metrics.by_uri["/tpcw/best_sellers"].mean
    assert bs_window < bs_plain
    # The window run serves semantic hits.
    assert window[-1].cache_stats.semantic_hits > 0
