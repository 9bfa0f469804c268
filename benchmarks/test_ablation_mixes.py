"""Ablation E: workload-mix sensitivity.

The paper evaluates the bidding mix (RUBiS, 15% writes) and the
shopping mix (TPC-W, ~20% writes).  Both benchmarks also define
browsing-oriented mixes with far fewer writes; caching should benefit
more as the write fraction drops (fewer invalidations), with throughput
moving the same way -- the abstract's "reduce response times ...
thereby improving throughput".
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_cell
from repro.harness.reporting import render_table


def _run():
    outcomes = {}
    for app, clients in (("rubis", 700), ("tpcw", 250)):
        for mix in ("default", "browsing"):
            spec = RunSpec(
                app=app, cached=True, mix=mix, defaults=BENCH_DEFAULTS
            )
            outcomes[(app, mix)] = run_cell(spec, clients)
    return outcomes


def test_ablation_mixes(benchmark, figure_report):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for (app, mix), outcome in outcomes.items():
        stats = outcome.cache_stats
        rows.append(
            [
                app,
                mix,
                round(outcome.hit_rate, 3),
                stats.invalidated_pages,
                round(outcome.mean_ms, 2),
                round(outcome.result.throughput, 1),
            ]
        )
    figure_report(
        "ablation_mixes",
        render_table(
            "Ablation: mix sensitivity (write fraction vs cache benefit) "
            "[profile: PAPER]",
            ["app", "mix", "hit rate", "pages invalidated", "mean (ms)",
             "throughput (req/s)"],
            rows,
        ),
    )
    for app in ("rubis", "tpcw"):
        default = outcomes[(app, "default")]
        browsing = outcomes[(app, "browsing")]
        # Fewer writes -> fewer invalidations and a better hit rate.
        assert (
            browsing.cache_stats.invalidated_pages
            < default.cache_stats.invalidated_pages
        ), app
        assert browsing.hit_rate > default.hit_rate - 0.02, app
    # RUBiS browsing has zero writes: nothing is ever invalidated.
    assert outcomes[("rubis", "browsing")].cache_stats.invalidated_pages == 0