"""Figure 17: relative benefits for different requests in TPC-W.

Per request type at 400 clients, with the standard TPC-W semantics
(hidden-state pages uncacheable, BestSeller 30 s window).  Paper
shapes: SearchRequest and HomeInteraction are explicitly uncacheable
(random ad banners); most BestSeller hits come from the semantic
window; ProductDetail and SearchResults enjoy plain hits.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_per_request_breakdown
from repro.harness.reporting import render_table

FIG17_TYPES = {
    "/tpcw/admin_request": "admin request",
    "/tpcw/best_sellers": "best sellers",
    "/tpcw/search_results": "execute search",
    "/tpcw/home": "home interaction",
    "/tpcw/new_products": "new products",
    "/tpcw/order_display": "order display",
    "/tpcw/order_inquiry": "order inquiry",
    "/tpcw/product_detail": "product detail",
    "/tpcw/search_request": "search request",
}


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


def test_fig17_tpcw_per_request(benchmark, figure_report):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)
    metrics = outcome.result.metrics
    total = metrics.overall.count
    rows = []
    details = {}
    for uri, label in sorted(FIG17_TYPES.items(), key=lambda kv: kv[1]):
        series = metrics.by_uri.get(uri)
        detail = metrics.detail.get(uri, {})
        details[uri] = detail
        count = series.count if series else 0
        rows.append(
            [
                label,
                round(100.0 * count / total, 1),
                detail.get("hit", 0),
                detail.get("semantic", 0),
                detail.get("cold", 0) + detail.get("invalidation", 0)
                + detail.get("expired", 0),
                detail.get("uncacheable", 0),
            ]
        )
    figure_report(
        "fig17_tpcw_per_request",
        render_table(
            "Figure 17: TPC-W per-request hits/misses (400 clients, "
            "standard semantics) [profile: PAPER]",
            ["request", "% reqs", "hits", "semantic hits", "misses", "uncacheable"],
            rows,
        ),
    )
    # SearchRequest and Home are entirely uncacheable (hidden state).
    for uri in ("/tpcw/search_request", "/tpcw/home"):
        detail = details[uri]
        assert detail.get("hit", 0) == 0 and detail.get("semantic", 0) == 0
        assert detail.get("uncacheable", 0) > 0
    # Most BestSeller cache benefit comes from the semantic window.
    best = details["/tpcw/best_sellers"]
    assert best.get("semantic", 0) > best.get("hit", 0)
    assert best.get("semantic", 0) > 0
    # ProductDetail and SearchResults get plain hits.
    assert details["/tpcw/product_detail"].get("hit", 0) > 0
    assert details["/tpcw/search_results"].get("hit", 0) > 0
