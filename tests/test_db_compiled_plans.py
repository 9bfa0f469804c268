"""Compiled plans vs the interpreter they replaced (the oracle).

Every statement runs on twin databases -- one compiling plans
(``repro.db.executor``), one interpreting (``tests/reference_executor``)
-- and must produce the same result (columns, rows, ``rows_examined``)
or the same exception type and message, and leave the same
``last_plan``, per-table scan/index counters, table contents and
``Database.stats`` behind.

Where a rewrite rule fired (``Executor.last_rules``) the plan is allowed
to be better, not different: columns, rows (order included), errors,
table contents and ``stats.queries`` / ``rows_returned`` still agree;
``rows_examined`` and every table's scan count may only be lower, and
``last_plan`` and index-lookup counts may differ.

LIKE operands here never contain a newline: the oracle keeps the
interpreter's ``.``-stops-at-newline bug (see ``test_db_plan_cache``).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.db import Column, ColumnType, Database, TableSchema
from repro.db.executor import PIN_FIRST, QueryResult
from repro.errors import ExecutionError, SchemaError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement
from tests.reference_executor import oracle_database

INT, FLOAT, VARCHAR, TEXT = (
    ColumnType.INT,
    ColumnType.FLOAT,
    ColumnType.VARCHAR,
    ColumnType.TEXT,
)


def schemas() -> list[TableSchema]:
    """Three tables sharing column names (``id``, ``k``) so unqualified
    references can be unique, ambiguous or unknown."""
    return [
        TableSchema(
            "a",
            [
                Column("id", INT),
                Column("k", INT),
                Column("g", INT),
                Column("s", VARCHAR),
                Column("v", INT),
            ],
            primary_key="id",
            indexes=["k"],
        ),
        TableSchema(
            "b",
            [Column("id", INT), Column("a_id", INT), Column("t", VARCHAR), Column("w", FLOAT)],
            primary_key="id",
            indexes=["a_id"],
        ),
        TableSchema("c", [Column("k", INT), Column("label", TEXT)], indexes=["k"]),
    ]


class Twins:
    """The same data in a compiling and an interpreting database."""

    def __init__(self, rows: dict[str, list[dict[str, object]]] | None = None) -> None:
        self.plan, self.oracle = Database("plan"), oracle_database()
        for db in (self.plan, self.oracle):
            for schema in schemas():
                db.create_table(schema)
            for table, table_rows in (rows or {}).items():
                db.insert_rows(table, table_rows)

    @staticmethod
    def _outcome(db: Database, statement: ast.Statement, params: tuple):
        try:
            return db.execute_statement(statement, params)
        except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
            return type(exc), str(exc)

    @staticmethod
    def _contents(db: Database):
        return {
            name: (dict(db.table(name)._rows), db.table(name).last_insert_id)
            for name in db.table_names
        }

    @staticmethod
    def _counters(db: Database) -> dict[str, int]:
        """Everything that accumulates, so one statement's share is a
        difference of two readings."""
        counters = {
            f"{name}.{kind}": getattr(db.table(name), f"{kind}_count")
            for name in db.table_names
            for kind in ("scan", "index_lookup")
        }
        counters.update(vars(db.stats))
        counters["examined_total"] = db._executor.rows_examined_total
        return counters

    def run(self, statement: ast.Statement | str, params: tuple = ()):
        """Execute on both; assert the same outcome and state (or, where
        a rule fired, a better plan for it); return the outcome."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        before = self._counters(self.plan), self._counters(self.oracle)
        got = self._outcome(self.plan, statement, params)
        want = self._outcome(self.oracle, statement, params)
        mine, theirs = (
            {key: value - start[key] for key, value in self._counters(db).items()}
            for db, start in zip((self.plan, self.oracle), before)
        )
        context = f"{statement.unparse()} {params!r}"
        assert self._contents(self.plan) == self._contents(self.oracle), context
        rules = self.plan._executor.last_rules if isinstance(statement, ast.Select) else ()
        if not rules:
            assert got == want, context
            assert mine == theirs, context
            if isinstance(statement, ast.Select):
                assert self.last_plan == list(self.oracle._executor.last_plan), context
            return got
        if isinstance(want, QueryResult):
            assert isinstance(got, QueryResult), (context, got)
            assert (got.columns, got.rows) == (want.columns, want.rows), context
            assert got.rows_examined <= want.rows_examined, context
        else:
            assert got == want, context
        for key, value in mine.items():
            if key.endswith(("scan", "rows_examined", "examined_total")):
                assert value <= theirs[key], (context, key)
            elif not key.endswith("index_lookup"):
                assert value == theirs[key], (context, key)
        return got

    @property
    def last_plan(self) -> list[str]:
        return list(self.plan._executor.last_plan)


# ---------------------------------------------------------------------------
# Generators: mostly well-formed statements over the tables in scope,
# with a deliberate trickle of wrong names, types and short parameters
# ---------------------------------------------------------------------------

NUMBERS = {"a": ["id", "k", "g", "v"], "b": ["id", "a_id", "w"], "c": ["k"]}
STRINGS = {"a": ["s"], "b": ["t"], "c": ["label"]}
#: Columns the access-path finders care about (keys and indexes, plus
#: one unindexed column for the "pinned but not indexed" scan).
KEYED = {"a": ["id", "k", "g"], "b": ["id", "a_id"], "c": ["k"]}
TEXTS = st.text(alphabet="abA%_.[", max_size=3)
small_ints = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(-1, 5))
#: Anything goes: unknown columns and bindings (``z`` is never bound,
#: ``nope`` never a column), other tables' columns, upper case.
wild_refs = st.builds(
    ast.ColumnRef,
    column=st.sampled_from(["id", "k", "s", "t", "a_id", "label", "nope", "ID"]),
    table=st.sampled_from([None, None, "a", "b", "x", "z", "A"]),
)


class Scope:
    """Draws expressions over the bindings one statement has in scope."""

    def __init__(self, draw, bindings: list[tuple[str, str]], n_params: int) -> None:
        self.draw = draw
        self.bindings = bindings  # (binding name, table name)
        self.n_params = n_params

    def chance(self, percent: int) -> bool:
        return self.draw(st.integers(0, 99)) >= 100 - percent  # shrinks to "no"

    def column(self, columns: dict[str, list[str]], binding: str | None = None) -> ast.ColumnRef:
        draw = self.draw
        candidates = [
            (name, table)
            for name, table in self.bindings
            if table in columns and binding in (None, name)
        ]
        if not candidates or self.chance(8):
            return draw(wild_refs)
        name, table = draw(st.sampled_from(candidates))
        qualifier = name.upper() if self.chance(10) else name
        if len(self.bindings) == 1 or self.chance(8):
            qualifier = draw(st.sampled_from([None, name]))
        return ast.ColumnRef(draw(st.sampled_from(columns[table])), qualifier)

    def constant(self, kind=small_ints) -> ast.Expression:
        if self.chance(40 if self.n_params else 4):
            # Mostly a supplied parameter; sometimes one past the vector.
            top = self.n_params if self.chance(8) else max(self.n_params - 1, 0)
            return ast.Placeholder(self.draw(st.integers(0, top)))
        if self.chance(8):
            return ast.Literal(self.draw(st.one_of(st.none(), TEXTS, st.just(0.5))))
        return ast.Literal(self.draw(kind))

    def number(self, depth: int = 2) -> ast.Expression:
        if depth and self.chance(25):
            op = self.draw(st.sampled_from("+-*/%"))
            return ast.BinaryOp(op, self.number(depth - 1), self.number(depth - 1))
        if self.chance(5):
            return ast.UnaryOp("-", self.column(NUMBERS))
        if self.chance(5):
            return self.string()  # a type error in waiting
        return self.column(NUMBERS) if self.chance(60) else self.constant()

    def string(self) -> ast.Expression:
        return self.column(STRINGS) if self.chance(70) else self.constant(TEXTS)

    def pin(self) -> ast.Expression:
        sides = [self.column(KEYED), self.constant()]
        return ast.BinaryOp("=", *(sides if self.chance(70) else sides[::-1]))

    def join_equality(self, binding: str | None = None) -> ast.Expression:
        """``later.key = earlier.key``: what the index-join path needs."""
        sides = [self.column(KEYED, binding), self.column(KEYED)]
        return ast.BinaryOp("=", *(sides if self.chance(70) else sides[::-1]))

    def predicate(self, depth: int = 2) -> ast.Expression:
        draw = self.draw
        if depth and self.chance(35):
            op = draw(st.sampled_from(["AND", "AND", "OR"]))
            return ast.BinaryOp(op, self.predicate(depth - 1), self.predicate(depth - 1))
        if self.chance(5):
            return ast.UnaryOp("NOT", self.predicate(max(depth - 1, 0)))
        shape = draw(st.integers(0, 7))
        if shape == 0:
            return self.pin()
        if shape == 1:
            return self.join_equality()
        if shape == 2:
            op = draw(st.sampled_from(["LIKE", "NOT LIKE"]))
            return ast.BinaryOp(op, self.string(), self.string())
        if shape == 3:
            return ast.IsNull(self.number(1), draw(st.booleans()))
        if shape == 4:
            items = tuple(self.number(1) for _ in range(draw(st.integers(1, 3))))
            return ast.InList(self.number(1), items, draw(st.booleans()))
        if shape == 5:
            return ast.Between(self.number(1), self.number(0), self.number(0), draw(st.booleans()))
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        if self.chance(25):
            return ast.BinaryOp(op, self.string(), self.string())
        return ast.BinaryOp(op, self.number(), self.number())

    def where(self) -> ast.Expression | None:
        """A conjunction the access-path finders can mine, or nothing."""
        if self.chance(40):
            return None
        conjuncts = [self.predicate()] if self.chance(60) else []
        if self.chance(35) or not conjuncts:
            conjuncts.append(self.pin())
        if len(self.bindings) > 1 and self.chance(75):
            conjuncts.append(self.join_equality(self.bindings[-1][0]))
        return _conjunction(self, conjuncts)

    def aggregate(self) -> ast.Expression:
        name = self.draw(st.sampled_from(["COUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"]))
        if self.chance(40 if name == "COUNT" else 4):
            arg: ast.Expression = ast.Star()  # fine for COUNT, lazy error otherwise
        else:
            arg = self.string() if self.chance(15) else self.number(1)
        return ast.FunctionCall(name, (arg,), distinct=self.chance(25))

    def group_value(self, depth: int = 1) -> ast.Expression:
        if depth and self.chance(25):
            op = self.draw(st.sampled_from(["+", "*", ">", "=", "AND"]))
            return ast.BinaryOp(op, self.group_value(0), self.group_value(0))
        if self.chance(70):
            return self.aggregate()
        return self.column(NUMBERS) if self.chance(70) else self.constant()

    def bound(self) -> ast.Expression | None:
        if self.chance(60):
            return None
        if self.chance(85):
            return ast.Literal(self.draw(st.integers(0, 4)))
        return self.constant()


def _table_ref(scope: Scope) -> ast.TableRef:
    name = scope.draw(st.sampled_from(["a", "a", "b", "b", "c", "B"]))
    if scope.chance(3):
        name = "missing"
    return ast.TableRef(name, scope.draw(st.sampled_from([None, None, None, "x", "y"])))


#: Index equalities between two tables (column of the first, of the second).
LINKS = {
    ("a", "b"): [("id", "a_id"), ("k", "id")],
    ("a", "c"): [("k", "k")],
    ("b", "c"): [("a_id", "k"), ("id", "k")],
}


def _conjunction(scope: Scope, conjuncts: list[ast.Expression]) -> ast.Expression | None:
    if not conjuncts:
        return None
    conjuncts = scope.draw(st.permutations(conjuncts))
    where = conjuncts[0]
    for conjunct in conjuncts[1:]:
        where = ast.BinaryOp("AND", where, conjunct)
    return where


def _rule_shape(
    scope: Scope,
) -> tuple[list[ast.TableRef], list[ast.Join], ast.Expression | None]:
    """A comma join pin-first applies to: a chain of two or three tables
    linked by index equalities, the second often pinned and the first
    often not, a range or unindexed conjunct on the first, and the
    generic predicates -- raising ones included -- against parameters
    of any type.  Sometimes the last link is an explicit JOIN, which
    must keep its place."""
    draw = scope.draw
    names = draw(st.permutations(["a", "b", "c"]))[: draw(st.sampled_from([2, 2, 3]))]
    refs = [
        ast.TableRef(name, draw(st.sampled_from([None, None, f"{name}{i}"])))
        for i, name in enumerate(names)
    ]
    scope.bindings = [(ref.binding, ref.name) for ref in refs]
    links = []
    for left, right in zip(refs, refs[1:]):
        ordered = sorted((left, right), key=lambda ref: ref.name)
        columns = draw(st.sampled_from(LINKS[(ordered[0].name, ordered[1].name)]))
        sides = [ast.ColumnRef(column, ref.binding) for column, ref in zip(columns, ordered)]
        links.append(ast.BinaryOp("=", *(sides if scope.chance(50) else sides[::-1])))
    conjuncts = list(links)
    first, second = refs[0], refs[1]
    if scope.chance(70):
        column = draw(st.sampled_from(KEYED[second.name]))
        conjuncts.append(ast.BinaryOp("=", ast.ColumnRef(column, second.binding), scope.constant()))
    if scope.chance(20):
        column = draw(st.sampled_from(KEYED[first.name]))
        conjuncts.append(ast.BinaryOp("=", ast.ColumnRef(column, first.binding), scope.constant()))
    if scope.chance(40):
        columns = NUMBERS[first.name] + STRINGS[first.name]
        column = ast.ColumnRef(draw(st.sampled_from(columns)), first.binding)
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "LIKE"]))
        conjuncts.append(ast.BinaryOp(op, column, scope.constant()))
    conjuncts += [scope.predicate(1) for _ in range(draw(st.integers(0, 2)))]
    joins = []
    if scope.chance(15):
        last = refs.pop()
        kind = draw(st.sampled_from(["INNER", "LEFT"]))
        joins.append(ast.Join(kind, last, conjuncts.pop(len(links) - 1)))
    return refs, joins, _conjunction(scope, conjuncts)


def _select(draw, n_params: int) -> ast.Select:
    scope = Scope(draw, [], n_params)

    def bind(ref: ast.TableRef) -> None:
        scope.bindings = [b for b in scope.bindings if b[0] != ref.binding]  # last wins
        scope.bindings.append((ref.binding, ref.name.lower()))

    if scope.chance(35):
        tables, joins, where = _rule_shape(scope)
    else:
        tables = [_table_ref(scope) for _ in range(draw(st.sampled_from([1, 1, 2, 2, 3])))]
        for ref in tables:
            bind(ref)
        joins = []
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
            ref = _table_ref(scope)
            bind(ref)
            condition = scope.join_equality(ref.binding) if scope.chance(75) else scope.predicate()
            if scope.chance(20):
                condition = ast.BinaryOp("AND", condition, scope.predicate(0))
            joins.append(ast.Join(draw(st.sampled_from(["INNER", "LEFT", "LEFT"])), ref, condition))
        where = scope.where()
    alias = st.sampled_from([None, None, "n", "k"])
    grouped = scope.chance(35)
    group_by: tuple = ()
    having = None
    if grouped:
        group_by = tuple(scope.column(KEYED) for _ in range(draw(st.integers(0, 2))))
        items = [
            ast.SelectItem(scope.group_value(), draw(alias))
            for _ in range(draw(st.integers(1, 3)))
        ]
        items += [ast.SelectItem(column) for column in group_by if scope.chance(70)]
        having = scope.group_value() if scope.chance(25) else None
        names = [ast.ColumnRef(item.alias or "k") for item in items] + list(group_by)
        order_keys = names + [ast.Literal(draw(st.integers(0, 3))), scope.number(0)]
    else:
        items = []
        for _ in range(draw(st.integers(1, 3))):
            if scope.chance(20):
                qualifier = draw(st.sampled_from([None, *(b[0] for b in scope.bindings)]))
                if scope.chance(8):
                    qualifier = "z"
                items.append(ast.SelectItem(ast.Star(qualifier)))
            elif scope.chance(10):
                items.append(ast.SelectItem(scope.predicate(1), draw(alias)))  # a boolean column
            else:
                value = scope.string() if scope.chance(30) else scope.number()
                items.append(ast.SelectItem(value, draw(alias)))
        order_keys = [scope.number(1), scope.string(), scope.column(KEYED), ast.Literal(1)]
    order_by = tuple(
        ast.OrderItem(draw(st.sampled_from(order_keys)), draw(st.booleans()))
        for _ in range(draw(st.sampled_from([0, 1, 1, 2])))
    )
    distinct = scope.chance(25)
    limit = scope.bound()
    if distinct and scope.chance(70):
        limit = ast.Literal(draw(st.integers(1, 3)))  # DISTINCT slices after de-duplication
    return ast.Select(
        items=tuple(items),
        tables=tuple(tables),
        joins=tuple(joins),
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
        offset=scope.bound(),
        distinct=distinct,
    )


def _write(draw, n_params: int) -> ast.Statement:
    table = draw(st.sampled_from(["a", "a", "b", "b", "c", "A"]))
    scope = Scope(draw, [(table.lower(), table.lower())], n_params)
    if scope.chance(3):
        table = "missing"
    kind = draw(st.sampled_from(["insert", "insert", "update", "update", "delete"]))
    where = scope.where()
    if scope.chance(10):
        # The write-side pin finder accepts any qualifier, even a wrong one.
        where = ast.BinaryOp("=", ast.ColumnRef(draw(st.sampled_from(["id", "k"])), "x"), scope.constant())
    if kind == "delete":
        return ast.Delete(table, where)
    columns = NUMBERS[table.lower()] + STRINGS[table.lower()] if table != "missing" else ["id"]
    targets = draw(st.lists(st.sampled_from(columns + ["nope"]), min_size=1, max_size=4))
    if kind == "update":
        # Values may read the row being updated (``v = v + 1``).
        assignments = tuple(
            ast.Assignment(target, scope.string() if target in "stlabel" else scope.number())
            for target in targets[:2]
        )
        return ast.Update(table, assignments, where)
    constants = Scope(draw, [], n_params)  # VALUES see no row
    values = tuple(
        constants.constant(TEXTS if target in "stlabel" else st.integers(0, 12))
        for target in targets
    )
    return ast.Insert(table, tuple(targets), values)


@st.composite
def steps(draw) -> tuple[ast.Statement, list[tuple]]:
    """One statement and the parameter vectors to run it with (the
    second run reuses the compiled plan on changed data)."""
    vectors = draw(
        st.lists(
            st.lists(st.one_of(small_ints, small_ints, TEXTS, st.none()), max_size=4).map(tuple),
            min_size=1,
            max_size=2,
        )
    )
    n_params = len(vectors[0])
    statement = _select(draw, n_params) if draw(st.integers(0, 9)) < 7 else _write(draw, n_params)
    return statement, vectors


nullable_ints = st.one_of(st.none(), small_ints, small_ints, small_ints)
nullable_texts = st.one_of(st.none(), TEXTS, TEXTS)
table_rows = st.fixed_dictionaries(
    {
        "a": st.lists(
            st.fixed_dictionaries(
                {"k": nullable_ints, "g": nullable_ints, "s": nullable_texts, "v": nullable_ints}
            ),
            min_size=2,
            max_size=6,
        ).map(lambda rows: [dict(row, id=i) for i, row in enumerate(rows)]),
        "b": st.lists(
            st.fixed_dictionaries(
                {"a_id": nullable_ints, "t": nullable_texts, "w": st.sampled_from([None, 0.5, 2.0])}
            ),
            min_size=2,
            max_size=6,
        ).map(lambda rows: [dict(row, id=i + 1) for i, row in enumerate(rows)]),
        "c": st.lists(
            st.fixed_dictionaries({"k": nullable_ints, "label": nullable_texts}), max_size=4
        ),
    }
)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(rows=table_rows, script=st.lists(steps(), min_size=1, max_size=5))
def test_plans_agree_with_the_interpreter(rows, script):
    twins = Twins(rows)
    for statement, vectors in script:
        for params in vectors:
            twins.run(statement, params)


# ---------------------------------------------------------------------------
# The traps found while sizing the change, pinned by name
# ---------------------------------------------------------------------------

A_ROWS = [
    {"id": 1, "k": 1, "g": 0, "s": "one", "v": 10},
    {"id": 2, "k": 2, "g": 0, "s": "two", "v": 20},
]
B_ROWS = [
    {"id": 1, "a_id": 1, "t": "x", "w": 0.5},
    {"id": 2, "a_id": 1, "t": "y", "w": 2.0},
    {"id": 3, "a_id": 9, "t": "z", "w": None},
]


@pytest.fixture
def twins() -> Twins:
    return Twins({"a": A_ROWS, "b": B_ROWS})


class TestCommaJoinAccessPath:
    SQL = "SELECT b.t FROM a, b WHERE a.k = ? AND b.a_id = a.id"

    def test_nonempty_stream_joins_through_the_index(self, twins):
        result = twins.run(self.SQL, (1,))
        assert sorted(result.rows) == [("x",), ("y",)]
        assert twins.last_plan == ["a: index eq k", "b: index join on a_id"]
        assert result.rows_examined == 1 + 2

    def test_empty_stream_has_nothing_to_join_against(self, twins):
        """The interpreter tried the join path only with an element in
        hand; an empty stream scans (and is charged the scan)."""
        result = twins.run(self.SQL, (99,))
        assert result.rows == []
        assert twins.last_plan == ["a: index eq k", "b: full scan"]
        assert result.rows_examined == 0 + len(B_ROWS)

    def test_unresolvable_other_side_falls_back_and_leaves_no_plan_line(self, twins):
        """``zz`` is no binding: the interpreter appended ``index join``,
        failed on the first element and popped it again."""
        sql = "SELECT a.id FROM a, b WHERE a.k = 99 AND b.a_id = zz.id"
        assert twins.run(sql).rows == []
        assert twins.last_plan == ["a: index eq k", "b: full scan"]
        sql = "SELECT a.id FROM a, b WHERE b.a_id = zz.id"
        assert twins.run(sql) == (ExecutionError, "unknown table binding 'zz'")
        assert twins.last_plan == ["a: full scan", "b: full scan"]

    def test_other_side_in_the_joined_table_itself_is_not_a_join(self, twins):
        twins.run("SELECT a.id FROM a, b WHERE b.a_id = t")
        assert twins.last_plan == ["a: full scan", "b: full scan"]


class TestExplicitJoinAccessPath:
    def test_unresolvable_other_side_with_an_empty_stream(self, twins):
        """The plan line says ``index on`` and nothing is examined or
        scanned: the interpreter's ``try`` never ran."""
        scans = twins.plan.table("b").scan_count
        result = twins.run(
            "SELECT a.id FROM a LEFT JOIN b ON b.a_id = zz.id WHERE a.k = 99"
        )
        assert result.rows == [] and result.rows_examined == 0
        assert twins.last_plan == ["a: index eq k", "b: LEFT join index on a_id"]
        assert twins.plan.table("b").scan_count == scans

    def test_unresolvable_other_side_with_elements_scans_once(self, twins):
        scans = twins.plan.table("b").scan_count
        outcome = twins.run("SELECT a.id FROM a JOIN b ON b.a_id = zz.id")
        assert outcome == (ExecutionError, "unknown table binding 'zz'")
        assert twins.last_plan == ["a: full scan", "b: INNER join index on a_id"]
        assert twins.plan.table("b").scan_count == scans + 1

    def test_unindexed_condition_scans_even_for_an_empty_stream(self, twins):
        scans = twins.plan.table("b").scan_count
        twins.run("SELECT a.id FROM a JOIN b ON b.t = a.s WHERE a.k = 99")
        assert twins.last_plan == ["a: index eq k", "b: INNER join full scan"]
        assert twins.plan.table("b").scan_count == scans + 1


class TestNotOverNull:
    """Beneath a NOT a comparison with NULL is unknown, and so is NOT of
    it: the row is not selected.  The plan and the interpreter agree
    with SQL (and with each other) on ``a`` holding ``k`` NULL and 1."""

    @pytest.fixture
    def twins(self) -> Twins:
        return Twins({"a": [dict(A_ROWS[0], k=None, g=1), dict(A_ROWS[1], k=1, g=2)]})

    @pytest.mark.parametrize(
        "where, ids",
        [
            ("NOT k = 2", [2]),
            ("NOT k > 0", []),
            ("NOT (k = 2 OR k = 3)", [2]),
            ("NOT (k = 1 AND id = 1)", [2]),
            ("NOT (k = 2 OR id = 1)", [2]),
            ("NOT NOT k = 1", [2]),
            ("NOT k <> 1", [2]),
            ("NOT k BETWEEN 5 AND 6", [2]),
            ("NOT s LIKE 'x%' AND NOT k = 5", [2]),
            ("NOT (k IS NULL)", [2]),
            ("NOT k = 2 OR id = 1", [1, 2]),
        ],
    )
    def test_unknown_is_not_selected(self, twins, where, ids):
        result = twins.run(f"SELECT id FROM a WHERE {where} ORDER BY id")
        assert result.rows == [(i,) for i in ids]

    def test_a_having_over_a_null_aggregate(self, twins):
        sql = "SELECT g FROM a GROUP BY g HAVING NOT MAX(k) > 5 ORDER BY g"
        assert twins.run(sql).rows == [(2,)]

    def test_outside_a_not_unknown_and_false_select_alike(self, twins):
        assert twins.run("SELECT id FROM a WHERE k = 2 OR id = 1").rows == [(1,)]
        assert twins.run("SELECT k = 1 FROM a ORDER BY id").rows == [(False,), (True,)]


class TestLazyErrors:
    def test_missing_column_is_null_on_a_null_row_and_an_error_on_a_real_one(self, twins):
        sql = "SELECT a.id, b.nope FROM a LEFT JOIN b ON b.a_id = a.id WHERE a.id = ?"
        assert twins.run(sql, (2,)).rows == [(2, None)]  # a 2 has no b: null row
        assert twins.run(sql, (1,)) == (SchemaError, "table 'b' has no column 'nope'")

    def test_null_row_columns_read_as_null(self, twins):
        result = twins.run("SELECT a.id, b.t, t FROM a LEFT JOIN b ON b.a_id = a.id AND b.t = 'y'")
        assert result.rows == [(1, "y", "y"), (2, None, None)]

    def test_an_empty_stream_raises_nothing(self, twins):
        sql = "SELECT nope, z.id, id FROM a, b WHERE a.k = 99 AND nope > z.q ORDER BY id"
        assert twins.run(sql).rows == []
        assert twins.run(sql.replace("99", "1"))[0] is ExecutionError

    def test_star_that_expands_to_nothing_raises_after_the_stream_is_built(self, twins):
        scans = twins.plan.table("a").scan_count
        assert twins.run("SELECT z.* FROM a WHERE g = 5") == (ExecutionError, "cannot expand z.*")
        assert twins.plan.table("a").scan_count == scans + 1
        assert twins.last_plan == ["a: full scan"]

    def test_missing_table_is_met_after_the_sources_before_it(self, twins):
        scans = twins.plan.table("a").scan_count
        assert twins.run("SELECT * FROM a, missing") == (SchemaError, "unknown table 'missing'")
        assert twins.plan.table("a").scan_count == scans + 1
        assert twins.last_plan == ["a: full scan"]

    def test_update_of_an_unknown_column_needs_a_matched_row(self, twins):
        assert twins.run("UPDATE a SET nope = 1 WHERE id = 99") .affected == 0
        assert twins.run("UPDATE a SET nope = 1 WHERE id = 1") == (
            SchemaError,
            "table 'a' has no column 'nope'",
        )

    def test_missing_parameter_raises_even_when_no_index_uses_it(self, twins):
        assert twins.run("SELECT id FROM a WHERE g = ?") == (
            ExecutionError,
            "missing parameter 0: got 0",
        )


class TestPinFirst:
    """The rewrite rule where it fires, and where it must not."""

    @pytest.fixture
    def twins(self) -> Twins:
        # Two ``a`` rows share k = 1; the ``b`` rows interleave them, so
        # driving from ``a`` enumerates in another order than FROM does.
        a = [dict(A_ROWS[0], id=1, k=1), dict(A_ROWS[1], id=2, k=1), dict(A_ROWS[1], id=3, k=None)]
        b = [
            {"id": 1, "a_id": 2, "t": "x", "w": 0.5},
            {"id": 2, "a_id": 1, "t": "y", "w": 2.0},
            {"id": 3, "a_id": 2, "t": "z", "w": None},
        ]
        return Twins({"a": a, "b": b, "c": [{"k": None, "label": "n"}, {"k": 1, "label": "one"}]})

    def test_the_pinned_table_drives_and_rows_come_in_from_order(self, twins):
        result = twins.run("SELECT b.id, a.id FROM b, a WHERE b.a_id = a.id AND a.k = ?", (1,))
        assert result.rows == [(1, 2), (2, 1), (3, 2)]  # b's rowid order, not a's
        assert twins.last_plan == ["a: index eq k [pin-first]", "b: index join on a_id"]
        assert twins.plan._executor.last_rules == (PIN_FIRST,)
        assert result.rows_examined == 2 + 3

    def test_no_more_pinned_rows_than_the_first_table_holds(self, twins):
        twins.run("DELETE FROM b WHERE id > 1")
        twins.run("SELECT b.id, a.id FROM b, a WHERE b.a_id = a.id AND a.k = ?", (1,))
        assert twins.plan._executor.last_rules == ()

    def test_a_comparison_with_a_wrong_typed_parameter_runs_in_from_order(self, twins):
        sql = "SELECT b.id FROM b, a WHERE b.w > ? AND b.a_id = a.id AND a.k = ?"
        assert twins.run(sql, (1, 1)).rows == [(2,)]
        assert twins.plan._executor.last_rules == (PIN_FIRST,)
        assert twins.run(sql, ("x", 1)) == (ExecutionError, "cannot compare 0.5 > 'x'")
        assert twins.plan._executor.last_rules == ()

    def test_a_null_join_key_matches_nothing(self, twins):
        sql = "SELECT c.label, a.id FROM c, a WHERE c.k = a.k AND a.id = ?"
        assert twins.run(sql, (3,)).rows == []  # a.k and one c.k are NULL
        assert twins.plan._executor.last_rules == (PIN_FIRST,)
        assert twins.run(sql, (1,)).rows == [("one", 1)]

    def test_from_orders_second_step_must_join_through_the_same_equality(self, twins):
        # FROM order joins ``a`` through a.id = b.w (one pair); driving
        # from ``a`` would join ``b`` through b.a_id = a.g (four pairs).
        twins.run("UPDATE a SET g = 2")
        sql = "SELECT b.id, a.id FROM b, a WHERE b.a_id = a.g AND a.id = b.w AND a.k = ?"
        assert twins.run(sql, (1,)).rows == []
        assert twins.plan._executor.last_rules == ()

    def test_explicit_joins_keep_from_order(self, twins):
        sql = (
            "SELECT b.id, a.id, c.label FROM b, a JOIN c ON c.k = a.k "
            "WHERE b.a_id = a.id AND a.k = ?"
        )
        result = twins.run(sql, (1,))
        assert result.rows == [(1, 2, "one"), (2, 1, "one"), (3, 2, "one")]
        assert twins.plan._executor.last_rules == ()

    def test_an_unresolved_reference_keeps_from_order(self, twins):
        outcome = twins.run("SELECT b.id FROM b, a WHERE b.a_id = a.id AND a.k = 1 AND id = 1")
        assert outcome == (ExecutionError, "ambiguous column 'id'")
        assert twins.plan._executor.last_rules == ()


def test_duplicate_binding_names_keep_the_last(twins):
    result = twins.run("SELECT x.*, id FROM a x, b x WHERE x.t = 'z'")
    assert result.columns == ["id", "a_id", "t", "w", "id"]
    assert result.rows == [(3, 9, "z", None, 3)] * len(A_ROWS)
    result = twins.run("SELECT x.id FROM a x LEFT JOIN b x ON x.a_id = 1 ORDER BY x.id")
    assert result.rows == [(1,), (1,), (2,), (2,)]


def test_distinct_slices_after_deduplication(twins):
    result = twins.run("SELECT DISTINCT a_id FROM b ORDER BY id LIMIT 2")
    assert result.rows == [(1,), (9,)]  # not [(1,)]: LIMIT applies to distinct rows
    assert twins.run("SELECT a_id FROM b ORDER BY id LIMIT 2").rows == [(1,), (1,)]
    assert twins.run("SELECT DISTINCT a_id FROM b ORDER BY id LIMIT 2 OFFSET 1").rows == [(1,), (9,)]


def test_logical_operators_yield_booleans_not_operands(twins):
    result = twins.run("SELECT k AND v, g OR k, g AND k, NOT g, g OR g FROM a WHERE id = 2")
    assert result.rows == [(True, True, False, True, False)]
    assert all(type(value) is bool for value in result.rows[0])


def test_grouped_select_quirks_survive(twins):
    """AND/OR are not operators between aggregates; ``*`` is only an
    error when a group has a member to read it from."""
    result = twins.run("SELECT g, s, COUNT(*) FROM a WHERE s LIKE 'T%' OR s LIKE '_NE' GROUP BY g")
    assert result.rows == [(0, "one", 2)]  # a bare column reads the group's first member
    assert twins.run("SELECT COUNT(*) FROM a HAVING COUNT(*) > 0 AND COUNT(*) < 5") == (
        ExecutionError,
        "unknown operator 'AND'",
    )
    statement = ast.Select(
        items=(ast.SelectItem(ast.Star()), ast.SelectItem(parse_statement("SELECT COUNT(*) FROM a").items[0].expression)),
        tables=(ast.TableRef("a"),),
        where=parse_statement("SELECT 1 FROM a WHERE id = ?").where,
    )
    assert twins.run(statement, (99,)).rows == [(None, 0)]
    assert twins.run(statement, (1,)) == (ExecutionError, "* is not a scalar expression")


# ---------------------------------------------------------------------------
# Replay: the benchmark's own request lists through twin databases
# ---------------------------------------------------------------------------


#: The rewrite rules each replayed workload fires.
REPLAY_RULES = {
    "rubis_bidding": set(),
    "tpcw_shopping_ring4": {PIN_FIRST},
}


@pytest.mark.parametrize("workload_name", sorted(REPLAY_RULES))
def test_workload_replay_matches_the_interpreter(workload_name):
    """The first 1 500 requests of a bench list: every statement the
    application issues runs on an oracle twin too and must agree --
    including the ``Database.stats`` totals ``sim/meter.py`` reads.  No
    rule fires on RUBiS, so there everything is identical; on TPC-W
    BestSellers runs pin-first."""
    from bench.workloads import WORKLOADS, build_app, generate
    from repro.web.http import HttpRequest
    from tests.reference_executor import Executor as Interpreter

    workload, rules = WORKLOADS[workload_name], REPLAY_RULES[workload_name]
    app, oracle = build_app(workload), build_app(workload).database
    oracle._executor = Interpreter(oracle._tables)
    database = app.database
    compiled = database.execute_statement
    compared, fired = 0, set()

    def both(statement, params=()):
        nonlocal compared
        compared += 1
        got = compiled(statement, params)
        want = oracle.execute_statement(statement, params)
        select = isinstance(statement, ast.Select)
        rewritten = select and database._executor.last_rules
        if not rewritten:
            assert got == want, statement.unparse()
            if select:
                assert database._executor.last_plan == oracle._executor.last_plan
            return got
        fired.update(rewritten)
        assert (got.columns, got.rows) == (want.columns, want.rows), statement.unparse()
        assert got.rows_examined <= want.rows_examined, statement.unparse()
        return got

    database.execute_statement = both
    carts: dict[int, str] = {}
    for request in generate(workload, 57, "closed", 1500):
        response = app.container.handle(
            HttpRequest(request.method, request.uri, request.resolved_params(carts))
        )
        assert response.status == 200, request.uri
        request.observe(response.body.encode("utf-8"), carts)
    assert compared > 1500
    assert fired == rules
    mine, theirs = database.stats, oracle.stats
    assert (mine.queries, mine.updates, mine.rows_returned) == (
        theirs.queries,
        theirs.updates,
        theirs.rows_returned,
    )
    assert mine.rows_examined <= theirs.rows_examined
    assert (mine.rows_examined == theirs.rows_examined) == (not rules)
    for name in database.table_names:
        mine, theirs = database.table(name), oracle.table(name)
        assert mine._rows == theirs._rows, name
        if rules:
            assert mine.scan_count <= theirs.scan_count, name
        else:
            assert (mine.scan_count, mine.index_lookup_count) == (
                theirs.scan_count,
                theirs.index_lookup_count,
            ), name
