"""Ablation C (Section 9): back-end result cache as a complement.

Four configurations of TPC-W under the shopping mix:

- no cache at all;
- back-end result cache only (the [8]-style design the related work
  discusses: homogeneous SQL-result caching at the JDBC interface);
- AutoWebCache page cache only;
- both layered (the paper's Section 9 proposal).

Expected shapes: both caches individually beat No cache; layering both
is at least as good as the page cache alone because the result cache
also serves the queries *under* pages the front end cannot cache
(TPC-W's uncacheable hidden-state Home page, the constantly-invalidated
BestSellers aggregation).  In this database-bound configuration the
result cache alone is in fact very strong -- the complementarity the
paper's Section 9 argues for.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_cell
from repro.harness.reporting import render_table

CLIENTS = 250


def _run():
    configurations = [
        RunSpec(app="tpcw", cached=False, defaults=BENCH_DEFAULTS),
        RunSpec(
            app="tpcw", cached=False, result_cache=True, defaults=BENCH_DEFAULTS
        ),
        RunSpec(app="tpcw", cached=True, defaults=BENCH_DEFAULTS),
        RunSpec(
            app="tpcw", cached=True, result_cache=True, defaults=BENCH_DEFAULTS
        ),
    ]
    return [(spec, run_cell(spec, CLIENTS)) for spec in configurations]


def test_ablation_result_cache(benchmark, figure_report):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    by_label = {}
    for spec, outcome in outcomes:
        by_label[spec.label] = outcome
        result_stats = outcome.result_cache_stats
        rows.append(
            [
                spec.label,
                round(outcome.mean_ms, 1),
                round(outcome.result.db_utilization, 3),
                round(outcome.hit_rate, 3) if outcome.cache_stats else "-",
                round(result_stats.hit_rate, 3) if result_stats else "-",
            ]
        )
    figure_report(
        "ablation_result_cache",
        render_table(
            f"Ablation: page cache vs result cache (TPC-W, {CLIENTS} clients) "
            "[profile: PAPER]",
            ["configuration", "mean (ms)", "db util", "page hit rate",
             "result hit rate"],
            rows,
        ),
    )
    no_cache = by_label["No cache"]
    result_only = by_label["Result cache only"]
    page_only = by_label["AutoWebCache"]
    both = by_label["AutoWebCache + result cache"]
    # The result cache relieves the database...
    assert result_only.result.db_utilization < no_cache.result.db_utilization
    assert result_only.mean_ms < no_cache.mean_ms
    assert result_only.result_cache_stats.hits > 0
    # ...and so does page caching.
    assert page_only.mean_ms < no_cache.mean_ms
    # In this database-bound TPC-W regime the result cache is strikingly
    # effective on its own: it also absorbs the queries issued *under*
    # the pages the front end cannot cache (the hidden-state Home page,
    # constantly-invalidated BestSellers) -- exactly why Section 9 calls
    # the two caches complementary rather than redundant.
    assert result_only.result_cache_stats.hit_rate > 0.5
    # Layering both: at least as good as the page cache alone, with the
    # database doing no more work than under either single cache.
    assert both.mean_ms <= page_only.mean_ms
    assert both.result.db_utilization <= page_only.result.db_utilization
    assert both.result_cache_stats.hits > 0