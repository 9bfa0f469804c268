"""SELECT execution tests."""

import pytest

from repro.db import Column, ColumnType, Database, TableSchema
from repro.errors import ExecutionError, SchemaError


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "emp",
            [
                Column("id", ColumnType.INT),
                Column("name", ColumnType.VARCHAR),
                Column("dept", ColumnType.INT),
                Column("salary", ColumnType.FLOAT),
                Column("boss", ColumnType.INT),
            ],
            primary_key="id",
            indexes=["dept"],
        )
    )
    database.create_table(
        TableSchema(
            "dept",
            [Column("id", ColumnType.INT), Column("name", ColumnType.VARCHAR)],
            primary_key="id",
        )
    )
    rows = [
        (1, "ann", 10, 120.0, None),
        (2, "bob", 10, 80.0, 1),
        (3, "cal", 20, 95.0, 1),
        (4, "dee", 20, 95.0, 3),
        (5, "eli", 30, 60.0, 3),
    ]
    database.insert_rows(
        "emp",
        [
            dict(zip(("id", "name", "dept", "salary", "boss"), row))
            for row in rows
        ],
    )
    database.insert_rows(
        "dept",
        [{"id": 10, "name": "eng"}, {"id": 20, "name": "ops"}, {"id": 30, "name": "hr"}],
    )
    return database


class TestProjection:
    def test_column_projection(self, db):
        result = db.query("SELECT name FROM emp WHERE id = 3")
        assert result.rows == [("cal",)]

    def test_star(self, db):
        result = db.query("SELECT * FROM emp WHERE id = 1")
        assert result.columns == ["id", "name", "dept", "salary", "boss"]

    def test_alias(self, db):
        result = db.query("SELECT name AS who FROM emp WHERE id = 1")
        assert result.columns == ["who"]

    def test_arithmetic_projection(self, db):
        result = db.query("SELECT salary * 2 FROM emp WHERE id = 2")
        assert result.rows == [(160.0,)]

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT salary FROM emp WHERE dept = 20")
        assert result.rows == [(95.0,)]


class TestWhere:
    def test_equality_pk_index(self, db):
        result = db.query("SELECT name FROM emp WHERE id = ?", (4,))
        assert result.rows == [("dee",)]
        assert result.rows_examined == 1  # index point lookup

    def test_secondary_index(self, db):
        result = db.query("SELECT name FROM emp WHERE dept = 10 ORDER BY id")
        assert [r[0] for r in result.rows] == ["ann", "bob"]
        assert result.rows_examined == 2

    def test_range_scan(self, db):
        result = db.query("SELECT name FROM emp WHERE salary > 90 ORDER BY name")
        assert [r[0] for r in result.rows] == ["ann", "cal", "dee"]
        assert result.rows_examined == 5  # full scan

    def test_and_or(self, db):
        result = db.query(
            "SELECT name FROM emp WHERE dept = 20 AND salary = 95 OR id = 5 "
            "ORDER BY id"
        )
        assert [r[0] for r in result.rows] == ["cal", "dee", "eli"]

    def test_in_and_between(self, db):
        result = db.query("SELECT name FROM emp WHERE id IN (1, 5) ORDER BY id")
        assert [r[0] for r in result.rows] == ["ann", "eli"]
        result = db.query(
            "SELECT name FROM emp WHERE salary BETWEEN 80 AND 95 ORDER BY id"
        )
        assert len(result.rows) == 3

    def test_in_and_not_in_subquery(self, db):
        """An uncorrelated ``[NOT] IN (SELECT ...)`` reads the inner
        SELECT's live rows, its placeholders numbered with the outer's;
        the outer plan and its EXPLAIN are the outer statement's.  Like
        ``[NOT] IN (list)`` it is three-valued: a NULL on either side is
        unknown unless a value matches, and unknown selects no row, under
        NOT too."""
        sql = (
            "SELECT name FROM emp WHERE dept = ? AND boss {} "
            "(SELECT id FROM emp WHERE salary > ?) ORDER BY id"
        )
        assert db.query(sql.format("IN"), (20, 100)).rows == [("cal",)]
        assert db.query(sql.format("NOT IN"), (20, 100)).rows == [("dee",)]
        db.update("UPDATE emp SET salary = ? WHERE id = ?", (150.0, 3))
        assert db.query(sql.format("IN"), (20, 100)).rows == [("cal",), ("dee",)]
        assert db.explain(sql.format("IN"), (20, 100)) == ["emp: index eq dept"]
        result = db.query(
            "SELECT COUNT(*) FROM emp WHERE NOT id IN "
            "(SELECT boss FROM emp WHERE boss IS NOT NULL)"
        )
        assert result.scalar() == 3

        def names(where):
            return db.query(f"SELECT name FROM emp WHERE {where} ORDER BY id").rows

        assert names("boss IN (NULL)") == []
        assert names("id NOT IN (1, NULL)") == []
        assert names("id IN (1, NULL)") == [("ann",)]
        assert names("boss NOT IN (SELECT id FROM emp WHERE dept = 30)") == [
            ("bob",), ("cal",), ("dee",), ("eli",)
        ]
        assert names("id NOT IN (SELECT boss FROM emp)") == []
        assert names("NOT id IN (SELECT boss FROM emp)") == []
        assert names("boss IN (SELECT id FROM emp WHERE dept = 20)") == [
            ("dee",), ("eli",)
        ]

    def test_like(self, db):
        result = db.query("SELECT name FROM emp WHERE name LIKE 'a%'")
        assert result.rows == [("ann",)]

    def test_is_null(self, db):
        result = db.query("SELECT name FROM emp WHERE boss IS NULL")
        assert result.rows == [("ann",)]
        result = db.query("SELECT COUNT(*) FROM emp WHERE boss IS NOT NULL")
        assert result.scalar() == 4

    def test_null_comparisons_are_false(self, db):
        result = db.query("SELECT name FROM emp WHERE boss = 99")
        assert result.rows == []

    def test_not(self, db):
        result = db.query("SELECT COUNT(*) FROM emp WHERE NOT dept = 10")
        assert result.scalar() == 3

    @pytest.mark.parametrize(
        "where, ids",
        [
            ("NOT b = 2", [(2,)]),
            ("NOT b > 0", []),
            ("NOT (b = 2 OR b = 3)", [(2,)]),
        ],
    )
    def test_not_of_a_comparison_with_null_selects_nothing(self, where, ids):
        """``NOT unknown`` is unknown: on ``t(id, b)`` holding ``(1,
        NULL)`` and ``(2, 1)`` the NULL row is never selected."""
        database = Database()
        database.create_table(
            TableSchema(
                "t", [Column("id", ColumnType.INT), Column("b", ColumnType.INT)], primary_key="id"
            )
        )
        database.insert_rows("t", [{"id": 1, "b": None}, {"id": 2, "b": 1}])
        assert database.query(f"SELECT id FROM t WHERE {where}").rows == ids

    @pytest.mark.parametrize(
        "where",
        ["b NOT IN (SELECT id FROM u)", "NOT (b IN (SELECT id FROM u))"],
    )
    def test_not_in_an_empty_subquery_selects_every_row(self, where):
        """No row is in an empty set, a NULL included: on ``t(id, b)``
        holding ``(1, NULL)`` and ``(2, 1)``, with ``u`` empty, both
        spellings select both rows."""
        database = Database()
        int_column = lambda name: Column(name, ColumnType.INT)  # noqa: E731
        database.create_table(
            TableSchema("t", [int_column("id"), int_column("b")], primary_key="id")
        )
        database.create_table(TableSchema("u", [int_column("id")], primary_key="id"))
        database.insert_rows("t", [{"id": 1, "b": None}, {"id": 2, "b": 1}])
        assert database.query(f"SELECT id FROM t WHERE {where} ORDER BY id").rows == [
            (1,),
            (2,),
        ]

    def test_not_between_with_a_null_bound_and_a_false_side_selects(self):
        """``c NOT BETWEEN a AND b`` is ``NOT (a <= c AND c <= b)``: with
        ``a`` NULL and ``c <= b`` false the conjunction is false, so on
        ``v(id, a, b, c)`` holding ``(1, NULL, 1, 2)`` the row is
        selected; with ``c <= b`` true it stays unknown."""
        database = Database()
        database.create_table(
            TableSchema(
                "v",
                [Column(name, ColumnType.INT) for name in ("id", "a", "b", "c")],
                primary_key="id",
            )
        )
        database.insert_rows(
            "v",
            [{"id": 1, "a": None, "b": 1, "c": 2}, {"id": 2, "a": None, "b": 3, "c": 2}],
        )
        query = database.query
        assert query("SELECT id FROM v WHERE c NOT BETWEEN a AND b").rows == [(1,)]
        assert query("SELECT id FROM v WHERE NOT (c BETWEEN a AND b)").rows == [(1,)]
        assert query("SELECT id FROM v WHERE c BETWEEN a AND b").rows == []
        # Bounds swapped: row 2's known side, 3 <= 2, is the false one.
        assert query("SELECT id FROM v WHERE c NOT BETWEEN b AND a").rows == [(2,)]


class TestJoins:
    def test_implicit_join(self, db):
        result = db.query(
            "SELECT emp.name, dept.name FROM emp, dept "
            "WHERE emp.dept = dept.id AND dept.name = 'ops' ORDER BY emp.id"
        )
        assert [r[0] for r in result.rows] == ["cal", "dee"]

    def test_explicit_inner_join(self, db):
        result = db.query(
            "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id "
            "WHERE dept.name = 'hr'"
        )
        assert result.rows == [("eli",)]

    def test_left_join_produces_null_row(self, db):
        db.update("INSERT INTO dept (id, name) VALUES (40, 'empty')")
        result = db.query(
            "SELECT dept.name, emp.name FROM dept LEFT JOIN emp "
            "ON emp.dept = dept.id WHERE dept.id = 40"
        )
        assert result.rows == [("empty", None)]

    def test_self_alias_join(self, db):
        result = db.query(
            "SELECT e.name, b.name FROM emp AS e, emp AS b "
            "WHERE e.boss = b.id AND e.id = 2"
        )
        assert result.rows == [("bob", "ann")]

    def test_ambiguous_column_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT name FROM emp, dept WHERE emp.dept = dept.id")


class TestAggregates:
    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM emp").scalar() == 5

    def test_count_column_ignores_null(self, db):
        assert db.query("SELECT COUNT(boss) FROM emp").scalar() == 4

    def test_sum_avg_min_max(self, db):
        row = db.query(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        ).rows[0]
        assert row == (450.0, 90.0, 60.0, 120.0)

    def test_group_by(self, db):
        result = db.query(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept"
        )
        assert result.rows == [(10, 2), (20, 2), (30, 1)]

    def test_group_by_having(self, db):
        result = db.query(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept "
            "HAVING COUNT(*) > 1 ORDER BY dept"
        )
        assert [r[0] for r in result.rows] == [10, 20]

    def test_aggregate_on_empty_set(self, db):
        result = db.query("SELECT SUM(salary), COUNT(*) FROM emp WHERE dept = 99")
        assert result.rows[0] == (None, 0)

    def test_count_distinct(self, db):
        assert db.query("SELECT COUNT(DISTINCT salary) FROM emp").scalar() == 4

    def test_order_by_aggregate_alias(self, db):
        result = db.query(
            "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept "
            "ORDER BY total DESC"
        )
        assert [r[0] for r in result.rows] == [10, 20, 30]


class TestOrderLimit:
    def test_order_by_unprojected_column(self, db):
        result = db.query("SELECT name FROM emp ORDER BY salary DESC")
        assert [r[0] for r in result.rows] == ["ann", "cal", "dee", "bob", "eli"]

    def test_order_stable_multi_key(self, db):
        result = db.query("SELECT name FROM emp ORDER BY salary DESC, name DESC")
        assert [r[0] for r in result.rows][:3] == ["ann", "dee", "cal"]

    def test_limit_offset(self, db):
        result = db.query("SELECT name FROM emp ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in result.rows] == ["bob", "cal"]

    def test_limit_placeholder(self, db):
        result = db.query("SELECT name FROM emp ORDER BY id LIMIT ?", (3,))
        assert len(result.rows) == 3

    def test_nulls_sort_deterministically(self, db):
        result = db.query("SELECT name FROM emp ORDER BY boss, id")
        assert result.rows[0] == ("ann",)  # NULL first ascending


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(SchemaError):
            db.query("SELECT a FROM ghost")

    def test_unknown_column(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT ghost FROM emp")

    def test_missing_parameter(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT name FROM emp WHERE id = ?")

    def test_query_requires_select(self, db):
        with pytest.raises(ExecutionError):
            db.query("DELETE FROM emp")
