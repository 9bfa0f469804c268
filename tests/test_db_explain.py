"""EXPLAIN tests: the engine picks the expected access paths."""

import pytest

from repro.db import Column, ColumnType, Database, TableSchema
from repro.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "orders",
            [
                Column("id", ColumnType.INT),
                Column("customer", ColumnType.INT),
                Column("total", ColumnType.FLOAT),
            ],
            primary_key="id",
            indexes=["customer"],
        )
    )
    database.create_table(
        TableSchema(
            "customers",
            [Column("id", ColumnType.INT), Column("name", ColumnType.VARCHAR)],
            primary_key="id",
        )
    )
    database.insert_rows(
        "orders",
        [{"id": i, "customer": i % 3, "total": float(i)} for i in range(9)],
    )
    database.insert_rows(
        "customers", [{"id": i, "name": f"c{i}"} for i in range(3)]
    )
    return database


def test_primary_key_lookup(db):
    plan = db.explain("SELECT total FROM orders WHERE id = 4")
    assert plan == ["orders: primary key id"]


def test_secondary_index_lookup(db):
    plan = db.explain("SELECT total FROM orders WHERE customer = ?", (1,))
    assert plan == ["orders: index eq customer"]


def test_full_scan_for_range(db):
    plan = db.explain("SELECT id FROM orders WHERE total > 3")
    assert plan == ["orders: full scan"]


def test_unindexed_equality_scans(db):
    plan = db.explain("SELECT id FROM orders WHERE total = 3")
    assert plan == ["orders: full scan"]


def test_index_join_via_where(db):
    plan = db.explain(
        "SELECT customers.name FROM orders, customers "
        "WHERE orders.customer = customers.id AND orders.id = 5"
    )
    assert plan == ["orders: primary key id", "customers: index join on id"]


def test_explicit_join_uses_index(db):
    plan = db.explain(
        "SELECT customers.name FROM orders "
        "JOIN customers ON orders.customer = customers.id"
    )
    assert plan == ["orders: full scan", "customers: INNER join index on id"]


def test_left_join_without_index_scans(db):
    db.create_table(
        TableSchema("tags", [Column("label", ColumnType.VARCHAR)])
    )
    plan = db.explain(
        "SELECT orders.id FROM orders LEFT JOIN tags ON tags.label = 'x'"
    )
    assert plan == ["orders: full scan", "tags: LEFT join full scan"]


def test_disjunction_disables_index(db):
    plan = db.explain(
        "SELECT id FROM orders WHERE customer = 1 OR total = 2"
    )
    assert plan == ["orders: full scan"]


def test_explain_rejects_writes(db):
    with pytest.raises(ExecutionError):
        db.explain("DELETE FROM orders")


def test_or_under_and_still_uses_required_conjunct(db):
    plan = db.explain(
        "SELECT id FROM orders WHERE customer = 1 AND (total = 2 OR total = 3)"
    )
    assert plan == ["orders: index eq customer"]


# ---------------------------------------------------------------------------
# The applications' joins: what the rewrite rule changes, and what not
# ---------------------------------------------------------------------------

BEST_SELLERS = (
    "SELECT item.i_id, item.i_title, SUM(order_line.ol_qty) AS sold "
    "FROM order_line, item "
    "WHERE order_line.ol_i_id = item.i_id "
    "AND item.i_subject = ? AND order_line.ol_o_id > ? "
    "GROUP BY item.i_id, item.i_title "
    "ORDER BY sold DESC, i_id LIMIT ?"
)


def test_best_sellers_drives_from_the_subject_index():
    from repro.apps.tpcw import build_tpcw
    from repro.apps.tpcw.data import SUBJECTS

    database = build_tpcw().database
    horizon = int(database.query("SELECT MAX(o_id) FROM orders").scalar()) - 100
    plan = database.explain(BEST_SELLERS, (SUBJECTS[0], horizon, 50))
    assert plan == ["item: index eq i_subject [pin-first]", "order_line: index join on ol_i_id"]
    assert database._executor.last_rules == ("pin-first",)


#: Every multi-table SELECT the RUBiS servlets run, with the plan it
#: had before the rewrite rule (it fires on none of them).
RUBIS_JOINS = {
    "items, users": (
        "SELECT items.id, items.name, items.initial_price, items.max_bid, "
        "items.nb_of_bids, items.end_date FROM items, users "
        "WHERE items.seller = users.id AND users.region = ? AND items.category = ? "
        "ORDER BY items.end_date LIMIT ? OFFSET ?",
        ("region", "category", 25, 0),
        ["items: index eq category", "users: index join on id"],
    ),
    "bids, users": (
        "SELECT users.nickname, bids.bid, bids.qty, bids.date FROM bids, users "
        "WHERE bids.item_id = ? AND bids.user_id = users.id ORDER BY bids.bid DESC",
        ("item",),
        ["bids: index eq item_id", "users: index join on id"],
    ),
    "comments, users": (
        "SELECT users.nickname, comments.rating, comments.date, comments.comment "
        "FROM comments, users "
        "WHERE comments.to_user_id = ? AND comments.from_user_id = users.id "
        "ORDER BY comments.date DESC",
        ("user",),
        ["comments: index eq to_user_id", "users: index join on id"],
    ),
    "bids, items": (
        "SELECT items.id, items.name, bids.bid, items.max_bid FROM bids, items "
        "WHERE bids.user_id = ? AND bids.item_id = items.id ORDER BY items.id",
        ("bidder",),
        ["bids: index eq user_id", "items: index join on id"],
    ),
    "buy_now, items": (
        "SELECT items.name, buy_now.qty, buy_now.date FROM buy_now, items "
        "WHERE buy_now.buyer_id = ? AND buy_now.item_id = items.id "
        "ORDER BY buy_now.date DESC",
        ("buyer",),
        ["buy_now: index eq buyer_id", "items: index join on id"],
    ),
}


@pytest.mark.parametrize("tables", sorted(RUBIS_JOINS))
def test_rubis_joins_keep_their_plans(tables):
    from repro.apps.rubis import build_rubis

    database = build_rubis().database
    database.update("INSERT INTO buy_now (buyer_id, item_id, qty, date) VALUES (1, 1, 1, 0.0)")
    # Parameters that make each join find rows (item 1, its seller, ...).
    region, category = database.query(
        "SELECT region, category FROM users, items WHERE items.seller = users.id AND items.id = 1"
    ).rows[0]
    values = {
        "region": region,
        "category": category,
        "item": 1,
        "user": database.query("SELECT to_user_id FROM comments WHERE id = 1").scalar(),
        "bidder": database.query("SELECT user_id FROM bids WHERE item_id = 1").scalar(),
        "buyer": 1,
    }
    sql, names, expected = RUBIS_JOINS[tables]
    params = tuple(values.get(name, name) for name in names)
    assert database.query(sql, params).rows, "a join that finds rows"
    assert database.explain(sql, params) == expected
    assert database._executor.last_rules == ()
