"""TPC-W application tests: all 14 interactions + semantic quirks."""

import pytest

from repro.apps.tpcw import TpcwDataset, build_tpcw
from repro.apps.tpcw.app import (
    BEST_SELLER_WINDOW_SECONDS,
    HIDDEN_STATE_URIS,
    INTERACTIONS,
    standard_semantics,
)
from repro.cache.autowebcache import AutoWebCache

from tests.conftest import node_store


def small_dataset():
    return TpcwDataset(n_items=60, n_customers=30, n_orders=40, seed=11)


@pytest.fixture(scope="module")
def app():
    return build_tpcw(small_dataset(), ad_seed=2)


READ_CASES = [
    ("/tpcw/home", {"c_id": "1"}),
    ("/tpcw/new_products", {"subject": "ARTS"}),
    ("/tpcw/best_sellers", {"subject": "ARTS"}),
    ("/tpcw/product_detail", {"i_id": "5"}),
    ("/tpcw/search_request", {}),
    ("/tpcw/search_results", {"type": "subject", "search": "ARTS"}),
    ("/tpcw/search_results", {"type": "title", "search": "SECRET"}),
    ("/tpcw/search_results", {"type": "author", "search": "CHEN"}),
    ("/tpcw/order_inquiry", {}),
    ("/tpcw/order_display", {"uname": "user3"}),
    ("/tpcw/customer_registration", {}),
    ("/tpcw/admin_request", {"i_id": "5"}),
]


def test_has_14_interactions():
    assert len(INTERACTIONS) == 14
    assert sum(1 for _u, (_c, w) in INTERACTIONS.items() if w) == 4


@pytest.mark.parametrize("uri,params", READ_CASES)
def test_read_interactions_render(app, uri, params):
    response = app.container.get(uri, params)
    assert response.status == 200, response.body[:200]


def test_home_pages_differ_between_requests(app):
    first = app.container.get("/tpcw/home", {"c_id": "1"}).body
    second = app.container.get("/tpcw/home", {"c_id": "1"}).body
    assert first != second  # hidden state: random banner + promos


def test_search_request_pages_differ(app):
    assert (
        app.container.get("/tpcw/search_request").body
        != app.container.get("/tpcw/search_request").body
    )


def test_unknown_search_type_is_error(app):
    response = app.container.get(
        "/tpcw/search_results", {"type": "isbn", "search": "x"}
    )
    assert response.status == 500


def test_cart_checkout_flow():
    app = build_tpcw(small_dataset(), ad_seed=3)
    container = app.container
    response = container.post("/tpcw/shopping_cart", {"i_id": "5", "qty": "2"})
    assert "Shopping cart 0" in response.body
    # Add the same item again: quantity accumulates.
    response = container.post(
        "/tpcw/shopping_cart", {"sc_id": "0", "i_id": "5", "qty": "1"}
    )
    line = app.database.query(
        "SELECT scl_qty FROM shopping_cart_line WHERE scl_sc_id = 0"
    ).scalar()
    assert line == 3
    stock_before = app.database.query(
        "SELECT i_stock FROM item WHERE i_id = 5"
    ).scalar()
    assert container.post(
        "/tpcw/buy_request", {"sc_id": "0", "c_id": "2"}
    ).status == 200
    assert container.post(
        "/tpcw/buy_confirm", {"sc_id": "0", "c_id": "2"}
    ).status == 200
    # Order created, stock decremented, cart gone.
    order = app.database.query(
        "SELECT o_id FROM orders ORDER BY o_id DESC LIMIT 1"
    ).scalar()
    lines = app.database.query(
        "SELECT COUNT(*) FROM order_line WHERE ol_o_id = ?", (order,)
    ).scalar()
    assert lines == 1
    stock_after = app.database.query(
        "SELECT i_stock FROM item WHERE i_id = 5"
    ).scalar()
    assert stock_after == stock_before - 3
    assert (
        app.database.query("SELECT COUNT(*) FROM shopping_cart").scalar() == 0
    )


def test_buy_confirm_empty_cart_is_error():
    app = build_tpcw(small_dataset(), ad_seed=3)
    app.container.post("/tpcw/shopping_cart", {})  # cart 0, no items
    response = app.container.post(
        "/tpcw/buy_confirm", {"sc_id": "0", "c_id": "1"}
    )
    assert response.status == 500


def test_admin_confirm_updates_item():
    app = build_tpcw(small_dataset(), ad_seed=3)
    app.container.post(
        "/tpcw/admin_confirm", {"i_id": "4", "cost": "12.5", "image": "i.png"}
    )
    row = app.database.query(
        "SELECT i_cost, i_thumbnail FROM item WHERE i_id = 4"
    ).rows[0]
    assert row == (12.5, "i.png")


def test_order_display_shows_latest_order():
    app = build_tpcw(small_dataset(), ad_seed=3)
    container = app.container
    container.post("/tpcw/shopping_cart", {"i_id": "7", "qty": "1", "c_id": "3"})
    container.post("/tpcw/buy_request", {"sc_id": "0", "c_id": "3"})
    container.post("/tpcw/buy_confirm", {"sc_id": "0", "c_id": "3"})
    body = container.get("/tpcw/order_display", {"uname": "user3"}).body
    assert "PENDING" in body


class TestStandardSemantics:
    def test_hidden_state_marked_uncacheable(self):
        registry = standard_semantics()
        from repro.web.http import HttpRequest

        for uri in HIDDEN_STATE_URIS:
            assert not registry.is_cacheable(HttpRequest("GET", uri))
        assert registry.ttl_for("/tpcw/best_sellers") is None

    def test_window_enables_best_seller_ttl(self):
        registry = standard_semantics(use_best_seller_window=True)
        assert registry.ttl_for("/tpcw/best_sellers") == BEST_SELLER_WINDOW_SECONDS


def test_cached_tpcw_hidden_state_correctness():
    """With the standard semantics, identical Home requests keep
    producing different pages even with the cache installed."""
    app = build_tpcw(small_dataset(), ad_seed=4)
    awc = AutoWebCache(semantics=standard_semantics())
    awc.install(app.servlet_classes)
    try:
        first = app.container.get("/tpcw/home", {"c_id": "1"}).body
        second = app.container.get("/tpcw/home", {"c_id": "1"}).body
        assert first != second
        assert awc.stats.uncacheable == 2
    finally:
        awc.uninstall()


def test_cached_tpcw_best_seller_window():
    clock = {"now": 0.0}
    app = build_tpcw(small_dataset(), ad_seed=4)
    awc = AutoWebCache(
        semantics=standard_semantics(use_best_seller_window=True),
        clock=lambda: clock["now"],
    )
    awc.install(app.servlet_classes)
    try:
        container = app.container
        first = container.get("/tpcw/best_sellers", {"subject": "ARTS"}).body
        # A purchase that would normally invalidate best sellers...
        container.post("/tpcw/shopping_cart", {"i_id": "0", "qty": "5"})
        container.post("/tpcw/buy_confirm", {"sc_id": "0", "c_id": "1"})
        stale = container.get("/tpcw/best_sellers", {"subject": "ARTS"}).body
        assert stale == first  # served within the 30 s window
        assert awc.stats.semantic_hits == 1
        clock["now"] = BEST_SELLER_WINDOW_SECONDS + 1
        container.get("/tpcw/best_sellers", {"subject": "ARTS"})
        assert awc.stats.misses_expired == 1
    finally:
        awc.uninstall()


def test_cached_tpcw_admin_invalidates_detail_page():
    app = build_tpcw(small_dataset(), ad_seed=4)
    awc = AutoWebCache(semantics=standard_semantics())
    awc.install(app.servlet_classes)
    try:
        container = app.container
        container.get("/tpcw/product_detail", {"i_id": "4"})
        container.get("/tpcw/product_detail", {"i_id": "9"})
        container.post(
            "/tpcw/admin_confirm", {"i_id": "4", "cost": "99.9", "image": "n.png"}
        )
        body = container.get("/tpcw/product_detail", {"i_id": "4"}).body
        assert "99.9" in body
        hits_before = awc.stats.hits
        container.get("/tpcw/product_detail", {"i_id": "9"})
        assert awc.stats.hits == hits_before + 1  # untouched item survived
    finally:
        awc.uninstall()


def test_ad_rotation_seeds_from_dataset_by_default():
    """Regression: ``build_tpcw()`` fell back to OS entropy for the ad
    rotator unless ``ad_seed`` was passed explicitly, so two same-seed
    instances (and any cross-process differential or stress run)
    disagreed on every hidden-state page."""
    a = build_tpcw(small_dataset())
    b = build_tpcw(small_dataset())
    assert [a.ads.next_banner() for _ in range(8)] == [
        b.ads.next_banner() for _ in range(8)
    ]
    assert (
        a.container.get("/tpcw/home", {"c_id": "1"}).body
        == b.container.get("/tpcw/home", {"c_id": "1"}).body
    )


def test_ad_seed_override_still_wins():
    implicit = build_tpcw(small_dataset())
    explicit = build_tpcw(small_dataset(), ad_seed=small_dataset().seed)
    assert [implicit.ads.next_banner() for _ in range(4)] == [
        explicit.ads.next_banner() for _ in range(4)
    ]
    different = build_tpcw(small_dataset(), ad_seed=999)
    assert [build_tpcw(small_dataset()).ads.next_banner() for _ in range(8)] != [
        different.ads.next_banner() for _ in range(8)
    ]


def test_fragments_recover_hits_on_hidden_state_pages():
    """The tentpole win: Home/SearchRequest stay uncacheable whole (the
    banner rotates) yet their stable spans now serve from the cache."""
    from repro.cache.fragments import fragment_key

    app = build_tpcw(small_dataset())
    awc = AutoWebCache(semantics=standard_semantics())
    awc.install(app.servlet_classes)
    try:
        container = app.container
        first = container.get("/tpcw/home", {"c_id": "1"}).body
        second = container.get("/tpcw/home", {"c_id": "1"}).body
        assert first != second  # the banner hole still rotates
        assert awc.stats.uncacheable == 2  # pages never cached whole
        assert awc.stats.hits >= 1  # the greeting fragment hit
        assert fragment_key("tpcw/greeting", {"c_id": "1"}) in node_store(awc).pages
        hits_before = awc.stats.hits
        container.get("/tpcw/search_request")
        container.get("/tpcw/search_request")
        assert awc.stats.hits == hits_before + 1  # the search form
    finally:
        awc.uninstall()


def test_fragments_flag_disables_fragment_caching():
    """``AutoWebCache(fragments=False)`` is the whole-page ablation arm:
    hidden-state pages then cache nothing at all."""
    app = build_tpcw(small_dataset())
    awc = AutoWebCache(semantics=standard_semantics(), fragments=False)
    awc.install(app.servlet_classes)
    try:
        app.container.get("/tpcw/home", {"c_id": "1"})
        app.container.get("/tpcw/home", {"c_id": "1"})
        assert awc.stats.hits == 0
        assert len(awc.cache) == 0
    finally:
        awc.uninstall()
