"""Figure 13: response time for RUBiS (bidding mix), No cache vs
AutoWebCache.

Paper shapes to hold: the cache-enabled curve sits below the no-cache
curve, the gap widens with load (up to ~64% improvement in the paper),
and the bidding-mix hit rate lands near 54%.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS, RUBIS_CLIENTS
from repro.harness.experiments import (
    RunSpec,
    improvement_percent,
    run_response_time_curve,
)
from repro.harness.reporting import render_chart, render_table


def _run():
    no_cache = run_response_time_curve(
        RunSpec(app="rubis", cached=False, defaults=BENCH_DEFAULTS),
        RUBIS_CLIENTS,
    )
    cached = run_response_time_curve(
        RunSpec(app="rubis", cached=True, defaults=BENCH_DEFAULTS),
        RUBIS_CLIENTS,
    )
    return no_cache, cached


def test_fig13_rubis_response_time(benchmark, figure_report):
    no_cache, cached = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for nc, cc in zip(no_cache, cached):
        rows.append(
            [
                nc.n_clients,
                round(nc.mean_ms, 2),
                round(cc.mean_ms, 2),
                round(improvement_percent(nc.mean_ms, cc.mean_ms), 1),
                round(cc.hit_rate, 3),
            ]
        )
    table = render_table(
        "Figure 13: RUBiS bidding mix, response time vs clients [profile: PAPER]",
        ["clients", "No cache (ms)", "AutoWebCache (ms)", "improv %", "hit rate"],
        rows,
    )
    chart = render_chart(
        "Figure 13 (plot)",
        {
            "No cache": [(o.n_clients, o.mean_ms) for o in no_cache],
            "AutoWebCache": [(o.n_clients, o.mean_ms) for o in cached],
        },
    )
    figure_report("fig13_rubis_response_time", table + "\n\n" + chart)
    top_nc, top_cc = no_cache[-1], cached[-1]
    # Cache wins at every load point.
    for nc, cc in zip(no_cache, cached):
        assert cc.mean_ms < nc.mean_ms, f"cache slower at {nc.n_clients} clients"
    # The paper reports "up to 64%" improvement; require a substantial
    # gap at the highest load without pinning the exact number.
    assert improvement_percent(top_nc.mean_ms, top_cc.mean_ms) > 40.0
    # No-cache response time grows with load.
    assert top_nc.mean_ms > no_cache[0].mean_ms * 1.5
    # Bidding-mix hit rate near the paper's 54%.
    assert 0.40 <= top_cc.hit_rate <= 0.70
    assert top_nc.result.errors == 0 and top_cc.result.errors == 0
