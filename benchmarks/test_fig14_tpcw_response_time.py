"""Figure 14: response time for TPC-W (shopping mix), log-scale y.

Paper shapes: the no-cache curve blows up towards 400 clients (seconds
of latency), AutoWebCache reduces response time by up to ~98%, the
shopping-mix hit rate lands near 43%, and the forced-miss configuration
(cache lookups paid on every request but never a hit) stays close to
No cache -- the paper's demonstration that lookup overhead is
negligible.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS, TPCW_CLIENTS
from repro.harness.experiments import (
    RunSpec,
    improvement_percent,
    run_cell,
    run_response_time_curve,
)
from repro.harness.reporting import render_chart, render_table


def _run():
    no_cache = run_response_time_curve(
        RunSpec(app="tpcw", cached=False, defaults=BENCH_DEFAULTS),
        TPCW_CLIENTS,
    )
    cached = run_response_time_curve(
        RunSpec(app="tpcw", cached=True, defaults=BENCH_DEFAULTS),
        TPCW_CLIENTS,
    )
    # Overhead probe at a moderate load (pre-saturation, where queueing
    # does not drown the lookup cost).
    forced = run_cell(
        RunSpec(app="tpcw", cached=True, forced_miss=True, defaults=BENCH_DEFAULTS),
        TPCW_CLIENTS[0],
    )
    return no_cache, cached, forced


def test_fig14_tpcw_response_time(benchmark, figure_report):
    no_cache, cached, forced = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for nc, cc in zip(no_cache, cached):
        rows.append(
            [
                nc.n_clients,
                round(nc.mean_ms, 1),
                round(cc.mean_ms, 1),
                round(improvement_percent(nc.mean_ms, cc.mean_ms), 1),
                round(cc.hit_rate, 3),
            ]
        )
    rows.append(
        [
            f"{forced.n_clients} (forced miss)",
            round(no_cache[0].mean_ms, 1),
            round(forced.mean_ms, 1),
            round(improvement_percent(no_cache[0].mean_ms, forced.mean_ms), 1),
            0.0,
        ]
    )
    table = render_table(
        "Figure 14: TPC-W shopping mix, response time vs clients (log y) "
        "[profile: PAPER]",
        ["clients", "No cache (ms)", "AutoWebCache (ms)", "reduc %", "hit rate"],
        rows,
    )
    chart = render_chart(
        "Figure 14 (plot)",
        {
            "No cache": [(o.n_clients, o.mean_ms) for o in no_cache],
            "AutoWebCache": [(o.n_clients, o.mean_ms) for o in cached],
        },
        log_y=True,
    )
    figure_report("fig14_tpcw_response_time", table + "\n\n" + chart)
    top_nc, top_cc = no_cache[-1], cached[-1]
    for nc, cc in zip(no_cache, cached):
        assert cc.mean_ms < nc.mean_ms
    # The paper reports "up to 98%" reduction at high load.
    assert improvement_percent(top_nc.mean_ms, top_cc.mean_ms) > 85.0
    # No-cache saturates: order-of-magnitude growth across the sweep.
    assert top_nc.mean_ms > no_cache[0].mean_ms * 10
    # Shopping-mix hit rate near the paper's 43%.
    assert 0.30 <= top_cc.hit_rate <= 0.60
    # Lookup overhead is negligible: forced-miss within 15% of no cache.
    assert forced.mean_ms < no_cache[0].mean_ms * 1.15
