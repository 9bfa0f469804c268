"""The database's plan cache: bound, keys, schema epoch -- and LIKE.

Plans bake in table objects, column positions and index choices, so the
things to get right are *when a plan dies* (create/drop table, never a
row change or a rollback) and that the cache cannot grow without bound.
"""

from __future__ import annotations

import threading

import pytest

import repro.db.engine as engine
from repro.db import Column, ColumnType, Database, TableSchema
from repro.db.executor import _like
from repro.errors import SchemaError
from repro.sql.parser import parse_statement


def make_db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", ColumnType.INT),
                Column("k", ColumnType.INT),
                Column("note", ColumnType.TEXT),
            ],
            primary_key="id",
            indexes=["k"],
        )
    )
    db.insert_rows(
        "t", [{"id": i, "k": i % 3, "note": f"note {i}"} for i in range(9)]
    )
    return db


@pytest.fixture
def db() -> Database:
    return make_db()


@pytest.fixture
def parses(monkeypatch) -> list[str]:
    """Every text handed to the engine's ``parse_statement``, in order."""
    seen: list[str] = []
    real = engine.parse_statement

    def counting(sql: str):
        seen.append(sql)
        return real(sql)

    monkeypatch.setattr(engine, "parse_statement", counting)
    return seen


# -- bound --------------------------------------------------------------------


def test_inline_literal_texts_cannot_grow_the_cache(db, parses):
    hot = "SELECT note FROM t WHERE id = ?"
    flushes, size = 0, len(db._plans)
    for i in range(10_000):
        assert db.query(f"SELECT k FROM t WHERE id = {i}").rows == (
            [(i % 3,)] if i < 9 else []
        )
        if i % 50 == 0:
            assert db.query(hot, (i % 9,)).scalar() == f"note {i % 9}"
        assert len(db._plans) <= engine._PLAN_LIMIT
        flushes += len(db._plans) < size
        size = len(db._plans)
    assert flushes >= 10_000 // engine._PLAN_LIMIT
    assert db.query(hot, (4,)).scalar() == "note 4"
    # One parse per residency: each one-off text once, the hot text at
    # most once per flush.
    assert len(parses) - parses.count(hot) == 10_000
    assert 1 <= parses.count(hot) <= flushes + 1


def test_a_resident_text_is_parsed_and_compiled_once(db, parses, monkeypatch):
    compiled = []
    real = db._executor.compile
    monkeypatch.setattr(
        db._executor, "compile", lambda s: compiled.append(s) or real(s)
    )
    sql = "SELECT note FROM t WHERE k = ? ORDER BY id"
    for k in range(30):
        assert len(db.query(sql, (k % 3,)).rows) == 3
    db.explain(sql, (1,))
    assert parses == [sql] and len(compiled) == 1


def test_execute_statement_is_keyed_by_ast_identity(db, monkeypatch):
    compiled = []
    real = db._executor.compile
    monkeypatch.setattr(
        db._executor, "compile", lambda s: compiled.append(s) or real(s)
    )
    statement = parse_statement("SELECT COUNT(*) FROM t WHERE k = ?")
    twin = parse_statement("SELECT COUNT(*) FROM t WHERE k = ?")
    assert statement == twin and statement is not twin
    for _ in range(5):
        assert db.execute_statement(statement, (1,)).scalar() == 3
    assert compiled == [statement]
    assert db.execute_statement(twin, (2,)).scalar() == 3
    assert len(compiled) == 2
    # A flush forgets both; the entry that comes back is for the object
    # asked about, never a recycled id.
    db._plans.clear()
    assert db.execute_statement(twin, (0,)).scalar() == 3
    assert db._plans[id(twin)].statement is twin


# -- schema epoch -------------------------------------------------------------------


def test_recreated_table_gets_new_plans():
    db = make_db()
    by_k = "SELECT id, note FROM t WHERE k = ? ORDER BY id"
    by_id = "SELECT note FROM t WHERE id = ?"
    assert db.explain(by_k, (1,)) == ["t: index eq k"]
    assert db.explain(by_id, (4,)) == ["t: primary key id"]
    assert db.query(by_k, (1,)).rows == [(1, "note 1"), (4, "note 4"), (7, "note 7")]

    # Same names; columns reordered, primary key moved to k, no index.
    db.drop_table("t")
    db.create_table(
        TableSchema(
            "t",
            [
                Column("note", ColumnType.TEXT),
                Column("k", ColumnType.INT),
                Column("id", ColumnType.INT),
            ],
            primary_key="k",
        )
    )
    db.insert_rows("t", [{"id": 5, "k": 1, "note": "new 1"}, {"id": 6, "k": 2, "note": "new 2"}])
    assert db.query(by_k, (1,)).rows == [(5, "new 1")]
    assert db.explain(by_k, (1,)) == ["t: primary key k"]
    assert db.query(by_id, (6,)).rows == [("new 2",)]
    assert db.explain(by_id, (6,)) == ["t: full scan"]
    assert db.query("SELECT * FROM t WHERE k = 2").columns == ["note", "k", "id"]

    # And back to an index on id only.
    db.drop_table("t")
    db.create_table(
        TableSchema(
            "t",
            [Column("id", ColumnType.INT), Column("k", ColumnType.INT), Column("note", ColumnType.TEXT)],
            indexes=["id"],
        )
    )
    db.insert_rows("t", [{"id": 6, "k": 1, "note": "third"}])
    assert db.explain(by_id, (6,)) == ["t: index eq id"]
    assert db.explain(by_k, (1,)) == ["t: full scan"]
    assert db.query(by_k, (1,)).rows == [(6, "third")]


def test_writes_follow_the_schema_too():
    db = make_db()
    bump = "UPDATE t SET k = k + 10 WHERE id = ?"
    assert db.update(bump, (2,)) == 1
    db.drop_table("t")
    db.create_table(
        TableSchema("t", [Column("k", ColumnType.FLOAT), Column("id", ColumnType.INT)])
    )
    db.update("INSERT INTO t (id, k) VALUES (2, 1)")
    assert db.update(bump, (2,)) == 1
    assert db.query("SELECT k, id FROM t").rows == [(11.0, 2)]  # coerced as FLOAT now


def test_create_table_through_execute_bumps_the_epoch(db):
    sql = "SELECT label FROM fresh WHERE id = ?"
    for _ in range(2):  # the plan that raises is cached like any other
        with pytest.raises(SchemaError, match="unknown table 'fresh'"):
            db.query(sql, (1,))
    epoch = db._schema_epoch
    db.execute("CREATE TABLE fresh (id INT PRIMARY KEY, label VARCHAR(10))")
    assert db._schema_epoch == epoch + 1
    db.update("INSERT INTO fresh (id, label) VALUES (1, 'a')")
    assert db.query(sql, (1,)).rows == [("a",)]
    assert db.explain(sql, (1,)) == ["fresh: primary key id"]


def test_rollback_keeps_serving_from_the_same_plans(db):
    read = "SELECT note FROM t WHERE k = ? ORDER BY id"
    write = "UPDATE t SET note = ?, k = ? WHERE id = ?"
    before = db.query(read, (1,)).rows
    plan, run = db._plans[read], db._plans[read].run
    db.begin()
    db.update(write, ("changed", 1, 0))
    db.update("DELETE FROM t WHERE id = ?", (4,))
    db.update("INSERT INTO t (id, k, note) VALUES (20, 1, 'extra')")
    assert db.query(read, (1,)).rows == [("changed",), ("note 1",), ("note 7",), ("extra",)]
    db.rollback()
    # Tables were cleared and refilled in place: same Table objects,
    # same epoch, same compiled closure -- and the old rows again.
    assert db.query(read, (1,)).rows == before
    assert db._plans[read] is plan and plan.run is run
    assert db.explain(read, (1,)) == ["t: index eq k"]
    assert db.update(write, ("after", 2, 0)) == 1
    assert db.query(read, (2,)).rows[0] == ("after",)


def test_trigger_pre_image_plan_follows_the_epoch(db):
    events = []
    db.triggers.on_any(events.append)
    sql = "DELETE FROM t WHERE k = ?"
    assert db.update(sql, (2,)) == 3
    assert [row["id"] for row in events[-1].pre_image] == [2, 5, 8]
    db.drop_table("t")
    db.create_table(TableSchema("t", [Column("k", ColumnType.INT), Column("id", ColumnType.INT)]))
    db.insert_rows("t", [{"id": 1, "k": 2}])
    assert db.update(sql, (2,)) == 1
    assert events[-1].pre_image == ({"k": 2, "id": 1},)


@pytest.mark.concurrency
def test_sixteen_threads_first_sighting_one_text(db, parses):
    sql = "SELECT id FROM t WHERE k = ? ORDER BY id"
    barrier = threading.Barrier(16)
    results: list[object] = [None] * 16

    def worker(n: int) -> None:
        barrier.wait(timeout=10)
        try:
            results[n] = [db.query(sql, (n % 3,)).rows for _ in range(50)]
        except Exception as exc:  # noqa: BLE001 - reported below
            results[n] = exc

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    for n, rows in enumerate(results):
        assert rows == [[(i,) for i in range(9) if i % 3 == n % 3]] * 50
    assert parses == [sql]
    assert db._plans[sql] is db._plans[id(db._parse(sql))]
    assert db.explain(sql, (0,)) == ["t: index eq k"]


# -- LIKE ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, pattern, expected",
    [
        ("hello", "h%", True),
        ("hello", "%llo", True),
        ("hello", "%ell%", True),
        ("hello", "h_llo", True),
        ("hello", "h_lo", False),
        ("hello", "HELLO", True),  # case-insensitive
        ("hello", "hell", False),  # full match, not prefix
        ("", "%", True),
        ("a.c", "a.c", True),
        ("abc", "a.c", False),  # . is literal
        ("a+b (c) [d] \\ ^$|?*", "a+b (c) [d] \\ ^$|?*", True),
        ("aab", "a*b", False),  # * is literal
        ("50%", "50%", True),
        ("line one\nline two", "%two", True),  # % spans newlines
        ("line one\nline two", "line%", True),
        ("a\nb", "a_b", True),  # _ matches a newline
        (None, "%", False),
        ("x", None, False),
        (12, "1%", True),  # operands are stringified
    ],
)
def test_like(text, pattern, expected):
    assert _like(text, pattern) is expected


def test_like_in_sql_with_every_pattern_source(db):
    db.update("INSERT INTO t (id, k, note) VALUES (50, 7, ?)", ("first line\nsecond (a+b)",))
    db.update("INSERT INTO t (id, k, note) VALUES (51, 7, NULL)")
    want = [(50,)]
    assert db.query("SELECT id FROM t WHERE note LIKE '%second%'").rows == want
    assert db.query("SELECT id FROM t WHERE note LIKE ?", ("%(A+B)",)).rows == want
    assert db.query("SELECT id FROM t WHERE k = 7 AND note NOT LIKE ?", ("note%",)).rows == want
    assert db.query("SELECT id FROM t WHERE note LIKE ?", (None,)).rows == []
    # NULL on the left is neither LIKE nor NOT LIKE anything.
    assert db.query("SELECT id FROM t WHERE id = 51 AND note NOT LIKE 'x'").rows == []
    # A pattern read from a column is re-translated per row.
    assert db.query("SELECT id FROM t WHERE k = 7 AND note LIKE note").rows == want
    # One plan, different parameter patterns on successive executions.
    sql = "SELECT COUNT(*) FROM t WHERE note LIKE ?"
    assert [db.query(sql, (p,)).scalar() for p in ("note 1", "note _", "%line%", "note 1")] == [1, 9, 1, 1]
