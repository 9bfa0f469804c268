"""Figure 16: relative benefits for different requests in RUBiS.

Per request type at 1000 clients: share of all requests, split into
hits and misses (cold vs invalidation).  Paper shapes: BrowseCategories
and BrowseRegions hit ~100%; BuyNow and PutComment have the lowest hit
ratios with misses mostly *cold* (they key on customer+item pairs);
ViewItem and ViewBidHistory miss mostly by *invalidation* (every bid
rewrites the item row).
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS
from repro.harness.experiments import RunSpec, run_per_request_breakdown
from repro.harness.reporting import render_table

#: The 11 read request types Figure 16 plots (paper's abbreviations).
FIG16_TYPES = {
    "/rubis/about_me": "About Me",
    "/rubis/browse_categories": "Browse Cat",
    "/rubis/browse_regions": "Browse Rgn",
    "/rubis/buy_now": "Buy Now",
    "/rubis/put_bid": "Put Bid",
    "/rubis/put_comment": "Put Cmt",
    "/rubis/search_items_by_category": "Search Cat",
    "/rubis/search_items_by_region": "Search Rgn",
    "/rubis/view_bid_history": "View Bids",
    "/rubis/view_item": "View Item",
    "/rubis/view_user_info": "View User",
}


def _run():
    return run_per_request_breakdown(
        RunSpec(app="rubis", cached=True, defaults=BENCH_DEFAULTS), 1000
    )


def test_fig16_rubis_per_request(benchmark, figure_report):
    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)
    metrics = outcome.result.metrics
    total = metrics.overall.count
    rows = []
    detail_by_uri = {}
    for uri, label in sorted(FIG16_TYPES.items(), key=lambda kv: kv[1]):
        series = metrics.by_uri.get(uri)
        detail = metrics.detail.get(uri, {})
        detail_by_uri[uri] = detail
        count = series.count if series else 0
        hits = detail.get("hit", 0)
        cold = detail.get("cold", 0)
        invalidation = detail.get("invalidation", 0)
        rows.append(
            [
                label,
                round(100.0 * count / total, 1),
                round(100.0 * hits / total, 1),
                round(100.0 * (cold + invalidation) / total, 1),
                cold,
                invalidation,
            ]
        )
    figure_report(
        "fig16_rubis_per_request",
        render_table(
            "Figure 16: RUBiS per-request hits/misses (% of all requests, "
            "1000 clients) [profile: PAPER]",
            ["request", "% reqs", "% hits", "% misses", "cold", "invalidation"],
            rows,
        ),
    )

    def hit_rate(uri):
        detail = detail_by_uri[uri]
        reads = (
            detail.get("hit", 0)
            + detail.get("cold", 0)
            + detail.get("invalidation", 0)
            + detail.get("capacity", 0)
            + detail.get("expired", 0)
        )
        return detail.get("hit", 0) / reads if reads else 0.0

    # BrowseCategories / BrowseRegions: almost 100% hit rate.
    assert hit_rate("/rubis/browse_categories") > 0.95
    assert hit_rate("/rubis/browse_regions") > 0.95
    # BuyNow and PutComment among the lowest hit ratios...
    assert hit_rate("/rubis/buy_now") < 0.3
    assert hit_rate("/rubis/put_comment") < 0.3
    # ...with misses mostly cold (customer+item keyed pages).
    for uri in ("/rubis/buy_now", "/rubis/put_comment"):
        detail = detail_by_uri[uri]
        assert detail.get("cold", 0) > detail.get("invalidation", 0)
    # ViewItem and ViewBidHistory: misses mostly due to invalidation.
    for uri in ("/rubis/view_item", "/rubis/view_bid_history"):
        detail = detail_by_uri[uri]
        assert detail.get("invalidation", 0) > detail.get("cold", 0)
    # Overall hit rate in the paper's neighbourhood (54%).
    assert 0.40 <= outcome.cache_stats.hit_rate <= 0.70
