"""Figure 18: per-request response-time breakdown for RUBiS.

For each request type at 1000 clients: overall average response time
plus the *extra* time a miss costs on top of that average (the paper's
stacked bars).  Paper shape: AboutMe carries the highest miss penalty
among the reads; pages that always hit (BrowseCategories) have no
penalty.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_per_request_breakdown
from repro.harness.reporting import render_table
from benchmarks.test_fig16_rubis_per_request import FIG16_TYPES


def _run():
    return run_per_request_breakdown(
        RunSpec(app="rubis", cached=True, defaults=BENCH_DEFAULTS), 1000
    )


def test_fig18_rubis_breakdown(benchmark, figure_report):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)
    metrics = outcome.result.metrics
    rows = []
    penalties = {}
    for uri, label in sorted(FIG16_TYPES.items(), key=lambda kv: kv[1]):
        series = metrics.by_uri.get(uri)
        misses = metrics.by_uri_misses.get(uri)
        if series is None or series.count == 0:
            continue
        overall_ms = series.mean * 1000.0
        extra_ms = max(0.0, (misses.mean * 1000.0 - overall_ms)) if misses else 0.0
        penalties[uri] = extra_ms
        rows.append([label, round(overall_ms, 2), round(extra_ms, 2)])
    figure_report(
        "fig18_rubis_breakdown",
        render_table(
            "Figure 18: RUBiS response-time breakdown (1000 clients) "
            "[profile: PAPER]",
            ["request", "overall avg (ms)", "extra time for a miss (ms)"],
            rows,
        ),
    )
    # AboutMe is the most expensive read overall (heaviest page build).
    about_me = metrics.by_uri["/rubis/about_me"].mean
    for uri in FIG16_TYPES:
        if uri == "/rubis/about_me":
            continue
        series = metrics.by_uri.get(uri)
        if series and series.count:
            assert about_me >= series.mean * 0.8, uri
    # Always-hit pages have no measurable miss penalty.
    assert penalties.get("/rubis/browse_categories", 0.0) == 0.0
