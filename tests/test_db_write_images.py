"""A write's image is what the database held.

The invalidation tests read a write's image instead of asking the
database again: AC-extraQuery reads an UPDATE's or DELETE's before-image,
the partner probes read an INSERT's after-image for the value its new
row joins on.  So the image must be exactly what a query would have
returned:

- UPDATE / DELETE: ``before_image()`` equals ``SELECT *`` with the
  write's WHERE run just before it, rows in the same (rowid) order;
- INSERT: ``after_image()`` equals ``SELECT * ... WHERE <key> =
  <generated key>`` run just after it.

Statements run on the twin databases of ``test_db_compiled_plans`` (the
compiled plans and the interpreter they replaced), so every SELECT and
write here also has to agree across the two.  A write that raises must
leave the table as it was: :func:`repro.db.executor.undo_updates` puts
back the rows an UPDATE had already changed.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.db import Column, ColumnType, Database, TableSchema
from repro.db.executor import QueryResult, UpdateResult
from repro.errors import DatabaseError
from repro.sql import ast_nodes as ast
from tests.test_db_compiled_plans import Twins, _write, table_rows

KEYS = {"a": "id", "b": "id"}


def select_star(table: str, where: ast.Expression | None) -> ast.Select:
    return ast.Select(
        items=(ast.SelectItem(ast.Star()),),
        tables=(ast.TableRef(table),),
        where=where,
    )


def as_dicts(result) -> tuple[dict[str, object], ...]:
    return tuple(dict(zip(result.columns, row)) for row in result.rows)


@st.composite
def writes(draw) -> tuple[ast.Statement, tuple]:
    params = draw(
        st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 3), st.none()), max_size=4
        ).map(tuple)
    )
    return _write(draw, len(params)), params


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(rows=table_rows, script=st.lists(writes(), min_size=1, max_size=5))
def test_a_write_s_image_is_what_a_select_returns(rows, script):
    twins = Twins(rows)
    for statement, params in script:
        table = statement.table
        before = None
        if not isinstance(statement, ast.Insert):
            before = twins.run(select_star(table, statement.where), params)
        contents = Twins._contents(twins.plan)
        outcome = twins.run(statement, params)
        if not isinstance(outcome, UpdateResult):
            # Raised: nothing changed (a part-applied UPDATE was undone).
            assert Twins._contents(twins.plan) == contents, outcome
            continue
        if isinstance(statement, ast.Insert):
            (stored,) = outcome.after_image()
            key = KEYS.get(table.lower())
            if key is not None:
                where = ast.BinaryOp("=", ast.ColumnRef(key), ast.Placeholder(0))
                found = twins.run(select_star(table, where), (outcome.last_insert_id,))
                assert as_dicts(found) == (stored,)
            assert outcome.before_image() is None
        elif isinstance(before, QueryResult):
            # (A WHERE only the write side accepts -- a qualifier naming
            # no table -- has no SELECT to compare with.)
            assert outcome.before_image() == as_dicts(before)
            assert outcome.after_image() is None


# ---------------------------------------------------------------------------
# An UPDATE that raises part-way
# ---------------------------------------------------------------------------


@pytest.fixture
def db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("id", ColumnType.INT), Column("k", ColumnType.INT),
             Column("v", ColumnType.INT)],
            primary_key="id",
            indexes=["k"],
        )
    )
    # Rowid order 2, 1, 6, 7: each row's key moves onto the one the row
    # before it held, until the last matched row meets 7.
    for key, k in ((2, 0), (1, 0), (6, 0), (7, 1)):
        db.update("INSERT INTO t (id, k, v) VALUES (?, ?, ?)", (key, k, key * 10))
    return db


def contents(db: Database):
    return db.query("SELECT id, k, v FROM t ORDER BY id").rows


def test_an_update_that_raises_part_way_restores_its_rows(db):
    """Rows 2 and 1 have moved (to 3 and 2) when row 6 collides with 7;
    the undo runs last change first, or restoring row 2 would collide
    with row 1's new key."""
    was = contents(db)
    with pytest.raises(DatabaseError):
        db.update("UPDATE t SET id = id + 1, v = 0 WHERE k = ?", (0,))
    assert contents(db) == was
    # The indexes were restored too: each row is found by key and by k.
    assert [db.query("SELECT v FROM t WHERE id = ?", (key,)).scalar()
            for key in (1, 2, 6, 7)] == [10, 20, 60, 70]
    assert len(db.query("SELECT id FROM t WHERE k = ?", (0,)).rows) == 3
    assert db.query("SELECT id FROM t WHERE id = ?", (3,)).rows == []


def test_an_update_that_succeeds_reports_its_before_image(db):
    result = db.execute("UPDATE t SET v = ? WHERE k = ?", (5, 0))
    assert result.before_image() == (
        {"id": 2, "k": 0, "v": 20},
        {"id": 1, "k": 0, "v": 10},
        {"id": 6, "k": 0, "v": 60},
    )
