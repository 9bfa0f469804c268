"""Ablation B (Section 9 future work): LRU cache size vs unbounded.

"Finally, we want to analyze the effect of varying cache size on the
hit rates of requests and investigate different cache replacement
strategies in this context."  This ablation runs the RUBiS bidding mix
with an LRU-bounded page cache across sizes, against the unbounded
cache.  Expected shape: hit rate grows with capacity and approaches the
unbounded hit rate.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_cell
from repro.harness.reporting import render_table

CLIENTS = 300
CAPACITIES = [25, 100, 400]


def _run():
    outcomes = {}
    for capacity in CAPACITIES:
        spec = RunSpec(
            app="rubis",
            cached=True,
            replacement="lru",
            capacity=capacity,
            defaults=BENCH_DEFAULTS,
        )
        outcomes[("lru", capacity)] = run_cell(spec, CLIENTS)
    outcomes[("unbounded", None)] = run_cell(
        RunSpec(app="rubis", cached=True, defaults=BENCH_DEFAULTS), CLIENTS
    )
    return outcomes


def test_ablation_replacement(benchmark, figure_report):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for (policy, capacity), outcome in outcomes.items():
        stats = outcome.cache_stats
        rows.append(
            [
                policy,
                capacity if capacity is not None else "inf",
                round(stats.hit_rate, 3),
                stats.misses_capacity,
                stats.evictions,
                round(outcome.mean_ms, 2),
            ]
        )
    figure_report(
        "ablation_replacement",
        render_table(
            f"Ablation: LRU cache size vs unbounded (RUBiS, {CLIENTS} clients) "
            "[profile: PAPER]",
            ["policy", "capacity", "hit rate", "capacity misses", "evictions",
             "mean (ms)"],
            rows,
        ),
    )
    unbounded = outcomes[("unbounded", None)].cache_stats.hit_rate
    small = outcomes[("lru", CAPACITIES[0])].cache_stats
    large = outcomes[("lru", CAPACITIES[-1])].cache_stats
    # Hit rate grows with capacity...
    assert large.hit_rate >= small.hit_rate - 0.01
    # ...and approaches the unbounded hit rate at the largest size.
    assert large.hit_rate >= unbounded - 0.10
    # Tight caches actually evict.
    assert small.evictions > 0
