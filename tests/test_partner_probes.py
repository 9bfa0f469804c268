"""Partner probes, end to end on RUBiS.

Under ``ROW_WITNESS`` an INSERT probes the partner tables its new row
can join, after the INSERT and on the write's own connection, and the
invalidator spares the join reads none of the probed rows satisfies.
The search-by-region page joins ``items`` to ``users``: a new item
reaches it only through its seller's region, a new user only through
the items it sells.  These tests pin the race between the two: a user
and an item that join each other, registered in either order, one of
them possibly landing between the other's INSERT and its probe.
Whatever the order, the page must be doomed and then served fresh.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.analysis import InvalidationPolicy
from repro.cache.aspects import JdbcConsistencyAspect
from repro.cache.autowebcache import AutoWebCache
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

REGION_PAGE = "/rubis/search_items_by_region"
#: A category no item is in yet: the page starts empty, so the new item
#: is on it once its seller's region matches.
CATEGORY = "999"
REGION = "2"

FACADES = {
    "cache": AutoWebCache,
    "ring": lambda **kw: AutoWebCache(n_nodes=4, **kw),
}


class RegisterSellerAndItem(HttpServlet):
    """Registers a user and an item the user sells in one transaction."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        self._connection.begin()
        statement = self._connection.create_statement()
        statement.execute_update(
            "INSERT INTO users (nickname, region) VALUES (?, ?)",
            (request.get_parameter("nickname"), int(REGION)),
        )
        statement.execute_update(
            "INSERT INTO items (name, seller, category, end_date) "
            "VALUES (?, ?, ?, ?)",
            ("txn lamp", statement.generated_key(), int(CATEGORY), 1.0),
        )
        self._connection.commit()
        response.write("ok")


@pytest.fixture(params=sorted(FACADES))
def rubis(request):
    app = build_rubis(RubisDataset(n_users=20, n_items=30))
    app.container.register("/test/seller_and_item", RegisterSellerAndItem(app.connection))
    awc = FACADES[request.param]()
    awc.install(app.servlet_classes)
    yield app, awc
    awc.uninstall()
    close = getattr(awc.cache, "close", None)
    if close is not None:
        close()


def region_page(app):
    return app.container.get(REGION_PAGE, {"category": CATEGORY, "region": REGION})


def cache_the_page(app, awc) -> None:
    # The page joins two tables that must have been written for the
    # rung to capture anything; register someone elsewhere first.
    register_user(app, "warm_up", region="1")
    for _ in range(2):
        assert "lamp" not in region_page(app).body
    assert awc.stats.hits == 1


def register_user(app, nickname, region=REGION):
    app.container.post(
        "/rubis/register_user",
        {"firstname": "F", "lastname": "L", "nickname": nickname, "region": region},
    )


def register_item(app, seller):
    app.container.post(
        "/rubis/register_item",
        {"name": "lamp", "initial_price": "1.0", "category": CATEGORY,
         "seller": str(seller)},
    )


def next_user_id(app) -> int:
    return app.database.query("SELECT MAX(id) FROM users").scalar() + 1


@pytest.mark.parametrize("first", ["user", "item"])
@pytest.mark.parametrize("hook", [None, "before its probes", "after its probes"])
def test_a_user_and_the_item_it_sells_doom_the_region_page(rubis, monkeypatch, first, hook):
    """``hook`` runs the second registration, on another thread, inside
    the first one's write: after its INSERT and before its probes, or
    right after its probes."""
    app, awc = rubis
    cache_the_page(app, awc)
    seller = next_user_id(app)
    writes = {
        "user": lambda: register_user(app, "zz_seller"),
        "item": lambda: register_item(app, seller),
    }
    second = writes["item" if first == "user" else "user"]
    if hook is not None:
        original = JdbcConsistencyAspect._partners
        pending = [second]

        def hooked(self, statement, template, image):
            def interleave():
                if pending:
                    thread = threading.Thread(target=pending.pop())
                    thread.start()
                    thread.join(timeout=10)
                    assert not thread.is_alive()

            if hook == "before its probes":
                interleave()
            found = original(self, statement, template, image)
            if hook == "after its probes":
                interleave()
            return found

        monkeypatch.setattr(JdbcConsistencyAspect, "_partners", hooked)
    writes[first]()
    if hook is None:
        second()
    assert app.database.query(
        "SELECT seller FROM items WHERE category = ?", (int(CATEGORY),)
    ).scalar() == seller
    hits = awc.stats.hits
    assert "lamp" in region_page(app).body
    assert awc.stats.hits == hits  # doomed, rendered afresh


def test_a_probe_in_a_transaction_sees_the_transaction_s_rows(rubis):
    """The user is probed before the item exists, so its probe excuses
    the page; the item's probe, in the same transaction, sees the new
    user's region, so the committed pair dooms it."""
    app, awc = rubis
    cache_the_page(app, awc)
    app.container.post("/test/seller_and_item", {"nickname": "zz_txn"})
    hits = awc.stats.hits
    assert "txn lamp" in region_page(app).body
    assert awc.stats.hits == hits


def test_a_new_user_with_nothing_to_join_spares_the_page(rubis):
    app, awc = rubis
    cache_the_page(app, awc)
    queries = app.database.stats.queries
    register_user(app, "zz_idle")
    hits = awc.stats.hits
    region_page(app)
    assert awc.stats.hits == hits + 1
    # The uniqueness check and one probe of ``items.seller`` (the only
    # join read resident), counted like any query.
    assert app.database.stats.queries - queries == 2
    assert awc.stats.partner_probes == awc.stats.partner_skips == 1


def test_below_the_row_witness_rung_nothing_is_probed():
    app = build_rubis(RubisDataset(n_users=20, n_items=30))
    awc = AutoWebCache(policy=InvalidationPolicy.EXTRA_QUERY)
    awc.install(app.servlet_classes)
    try:
        register_user(app, "warm_up", region="1")
        region_page(app)
        queries = app.database.stats.queries
        register_user(app, "zz_idle")
        assert app.database.stats.queries - queries == 1  # the uniqueness check
        hits = awc.stats.hits
        region_page(app)
        assert awc.stats.hits == hits  # doomed, as in the paper
        assert awc.stats.partner_probes == awc.stats.partner_skips == 0
    finally:
        awc.uninstall()
