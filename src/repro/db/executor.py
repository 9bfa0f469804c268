"""Statement compilation against :class:`~repro.db.storage.Table` stores.

:meth:`Executor.compile` turns one parsed statement into a *plan*: a
closure ``run(params)`` built once per (statement, schema) and run per
request.  Everything that depends only on the statement and the schema
is decided at compile time -- each FROM/JOIN binding gets a *slot*, the
row stream is a list of tuples holding one row list per slot, every
column reference is resolved to ``(slot, position)``, every expression,
aggregate, sort key and projection item (``*`` expanded) becomes a
closure ``f(rows, params)``, and each binding's access path (index
join, primary key, index equality, full scan) is chosen.  What depends
on the data or the parameters -- and every error -- stays at run time:
a reference that cannot be resolved compiles to a closure raising the
interpreter's error when (and only if) a row reaches it.

SELECT uses nested-loop joins with an index fast path for equality
predicates on indexed columns, aggregation and ORDER BY/LIMIT;
INSERT/UPDATE/DELETE return affected row counts, and UPDATE/DELETE the
rows they matched as they were before the write (the before-image the
AC-extraQuery policy and the triggers consume); an UPDATE that raises
part-way puts back the rows it already changed.  Every statement
reports ``rows_examined``, which the load simulator's cost model
charges as database work.  A statement runs the plan the tree-walking
interpreter chose (``tests/reference_executor.py`` keeps it as the
oracle) in FROM order, unless it is a comma join that the named rewrite
rule of :func:`_compile_pin_first` -- ``pin-first`` -- makes examine
fewer rows for the same outcome; :attr:`Executor.last_rules` and the tag
in :attr:`Executor.last_plan` name the rule when it fired.
"""

from __future__ import annotations

import dataclasses
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.db.schema import ColumnType, TableSchema
from repro.db.storage import Table
from repro.errors import ExecutionError, SchemaError
from repro.sql import ast_nodes as ast

#: A compiled expression ``f(rows, params)``: ``rows`` is one element of
#: the row stream -- a tuple holding, per slot, a row list or None (the
#: null row of a LEFT JOIN).  Group expressions take the group's member
#: list in its place, ORDER BY keys of a grouped SELECT the output row.
Compiled = Callable[[object, tuple], object]
#: name -> (slot, schema, may hold a null row): the bindings visible at
#: one point of the FROM/JOIN list (duplicate names: the last one wins).
Env = dict[str, tuple[int, TableSchema, bool]]
#: One source of the row stream: ``step(stream, params, plan_lines)``
#: returns (extended stream, rows examined).
Step = Callable[[list, tuple, list], tuple[list, int]]

_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")
#: The stream before the first source: one element binding nothing.
_UNIT_STREAM: list[tuple] = [()]


@dataclass
class QueryResult:
    """Result of a SELECT: column names, row tuples, and work accounting."""

    columns: list[str]
    rows: list[tuple[object, ...]]
    rows_examined: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> object:
        """Return the single value of a 1x1 result (or None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def dicts(self) -> list[dict[str, object]]:
        """Rows as column->value dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass
class UpdateResult:
    """Result of a write: affected row count and work accounting."""

    affected: int
    rows_examined: int = 0
    #: Primary key assigned by an auto-increment INSERT (else None).
    last_insert_id: object = None
    #: UPDATE/DELETE only (else None): the table's column names and the
    #: rows the statement matched as they were before it ran -- its
    #: *before-image*, in rowid order.  These are the row lists the table
    #: held: an update replaces a row's list and a delete drops it, so
    #: keeping them costs no copy.
    columns: list[str] | None = None
    before: list[list[object]] | None = None
    #: INSERT only (else None): the row it stored -- generated key,
    #: coerced values and NULLs for omitted columns -- its *after-image*.
    after: list[object] | None = None

    def before_image(self) -> tuple[dict[str, object], ...] | None:
        """The before-image as column->value dictionaries (None when
        the statement was not an UPDATE or DELETE)."""
        if self.before is None:
            return None
        columns = self.columns
        return tuple([dict(zip(columns, row)) for row in self.before])

    def after_image(self) -> tuple[dict[str, object], ...] | None:
        """The stored row as a one-row image (None unless an INSERT)."""
        if self.after is None:
            return None
        return (dict(zip(self.columns, self.after)),)

    def image(self) -> tuple[dict[str, object], ...] | None:
        """What an invalidation test reads: the before-image of an
        UPDATE/DELETE, the after-image of an INSERT."""
        if self.before is not None:
            return self.before_image()
        return self.after_image()


class Executor:
    """Compiles statements into plans over a table dictionary."""

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables
        self.rows_examined_total = 0
        #: Access-path decisions of the most recent SELECT, as
        #: "(binding) path" strings -- the EXPLAIN output.
        self.last_plan: list[str] = []
        #: The rewrite rules the most recent SELECT ran under (see
        #: :func:`_compile_pin_first`); empty for a FROM-order plan.
        self.last_rules: tuple[str, ...] = ()

    def compile(
        self, statement: ast.Statement
    ) -> Callable[[tuple], QueryResult | UpdateResult]:
        """The plan for ``statement`` against the current schemas.

        Valid until a table is created or dropped.  A missing table
        compiles to a plan that raises when execution gets there.
        """
        if isinstance(statement, ast.Select):
            return self._compile_select(statement)
        compile_write = {
            ast.Insert: self._compile_insert,
            ast.Update: self._compile_update,
            ast.Delete: self._compile_delete,
        }.get(type(statement))
        if compile_write is None:
            raise ExecutionError(f"cannot execute {type(statement).__name__}")
        table = self._tables.get(statement.table.lower())
        if table is None:
            return _raises(SchemaError, f"unknown table {statement.table!r}")
        return compile_write(statement, table)

    def _compile_select(self, select: ast.Select) -> Callable[[tuple], QueryResult]:
        where = self._with_subqueries(select.where)
        if where is not select.where:
            select = dataclasses.replace(select, where=where)
        env: Env = {}
        steps: list[Step] = []
        sources = [(ref, None) for ref in select.tables]
        sources += [(join.table, join) for join in select.joins]
        for slot, (ref, join) in enumerate(sources):
            table = self._tables.get(ref.name.lower())
            if table is None:
                # Raised where the interpreter met it: after the sources
                # before it have run.  Nothing after it ever runs.
                steps.append(_raises(SchemaError, f"unknown table {ref.name!r}"))
                break
            if join is None:
                steps.append(_compile_cross(table, ref.binding, env, select.where))
            else:
                steps.append(_compile_join(table, join, slot, env))
            nullable = join is not None and join.kind == "LEFT"
            env[ref.binding] = (slot, table.schema, nullable)
        where = None if select.where is None else _compile_expr(select.where, env)
        finish = _compile_finish(select, env)

        def from_order(params: tuple) -> QueryResult:
            self.last_plan, self.last_rules = [], ()
            stream, examined = _UNIT_STREAM, 0
            for step in steps:
                stream, count = step(stream, params, self.last_plan)
                examined += count
            if where is not None:
                stream = [rows for rows in stream if where(rows, params)]
            columns, out = finish(stream, params)
            self.rows_examined_total += examined
            return QueryResult(columns=columns, rows=out, rows_examined=examined)

        rewrite = _compile_pin_first(select, self._tables)
        if rewrite is None:
            return from_order
        ready, plan, execute = rewrite

        def run(params: tuple) -> QueryResult:
            if not ready(params):
                return from_order(params)
            self.last_plan, self.last_rules = list(plan), (PIN_FIRST,)
            columns, out, examined = execute(params)
            self.rows_examined_total += examined
            return QueryResult(columns=columns, rows=out, rows_examined=examined)

        return run

    def _with_subqueries(self, expr: ast.Expression | None) -> ast.Expression | None:
        """``expr`` with every ``[NOT] IN (SELECT ...)`` predicate in its
        AND/OR/NOT tree bound to the inner SELECT's own plan.  The inner
        SELECT is uncorrelated (it sees only its own FROM list), runs on
        an executor of its own (the outer EXPLAIN stays the outer
        plan's) and its rows examined are not added to the outer's."""
        if isinstance(expr, ast.InSubquery):
            inner = Executor(self._tables)._compile_select(expr.select)
            return _Subquery(expr.operand, inner, expr.negated)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("AND", "OR"):
            left = self._with_subqueries(expr.left)
            right = self._with_subqueries(expr.right)
            if left is not expr.left or right is not expr.right:
                return ast.BinaryOp(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            operand = self._with_subqueries(expr.operand)
            if operand is not expr.operand:
                return ast.UnaryOp(expr.op, operand)
        return expr

    def _compile_insert(
        self, insert: ast.Insert, table: Table
    ) -> Callable[[tuple], UpdateResult]:
        values = [
            (column.lower(), _compile_expr(expr, {}))
            for column, expr in zip(insert.columns, insert.values)
        ]
        coerce_row = table.schema.coerce_row
        columns = table.schema.column_names

        def run(params: tuple) -> UpdateResult:
            row = coerce_row({name: value(None, params) for name, value in values})
            table.insert(row)
            self.rows_examined_total += 1
            return UpdateResult(
                affected=1,
                rows_examined=1,
                last_insert_id=table.last_insert_id,
                columns=columns,
                after=row,
            )

        return run

    def _compile_update(
        self, update: ast.Update, table: Table
    ) -> Callable[[tuple], UpdateResult]:
        schema = table.schema
        match = _compile_match(table, update.where)
        env: Env = {schema.name: (0, schema, False)}
        #: (position, coercer, value) per assignment; an unknown column
        #: raises in place of its value, i.e. only for a matched row.
        setters = []
        for assignment in update.assignments:
            if schema.has_column(assignment.column):
                position = schema.position(assignment.column)
                coerce = schema.columns[position].type.coerce
                setters.append((position, coerce, _compile_expr(assignment.value, env)))
            else:
                message = _no_column(schema, assignment.column)
                setters.append((0, None, _raises(SchemaError, message)))
        columns = schema.column_names

        def run(params: tuple) -> UpdateResult:
            matches, examined = match(params)
            try:
                for applied, (rowid, row) in enumerate(matches):
                    rows = (row,)
                    new_row = list(row)
                    for position, coerce, value in setters:
                        new_row[position] = coerce(value(rows, params))
                    table.update_row(rowid, new_row)
            except BaseException:
                undo_updates(table, matches[:applied])
                raise
            self.rows_examined_total += examined
            return UpdateResult(
                affected=len(matches),
                rows_examined=examined,
                columns=columns,
                before=[row for _rowid, row in matches],
            )

        return run

    def _compile_delete(
        self, delete: ast.Delete, table: Table
    ) -> Callable[[tuple], UpdateResult]:
        match = _compile_match(table, delete.where)
        columns = table.schema.column_names

        def run(params: tuple) -> UpdateResult:
            matches, examined = match(params)
            for rowid, _row in matches:
                table.delete_row(rowid)
            self.rows_examined_total += examined
            return UpdateResult(
                affected=len(matches),
                rows_examined=examined,
                columns=columns,
                before=[row for _rowid, row in matches],
            )

        return run


def undo_updates(table: Table, applied: list[tuple[int, list[object]]]) -> None:
    """Put back the (rowid, old row) pairs a failing UPDATE already
    changed, so a statement that raises changes nothing.  Last first: a
    row kept its old key until it changed, so only a later change can
    have taken that key, and later changes are undone before it -- every
    restore passes the primary-key check."""
    for rowid, row in reversed(applied):
        table.update_row(rowid, row)


# ---------------------------------------------------------------------------
# Row-stream construction: one step per FROM table / JOIN
# ---------------------------------------------------------------------------


def _compile_cross(
    table: Table, binding: str, env: Env, where: ast.Expression | None
) -> Step:
    """Extend each stream element with rows of a FROM table.

    Access-path selection, in priority order: equi-join through an
    index/PK against a column already in scope, constant-equality index
    lookup, full scan (cartesian).  All paths are filters on required
    conjuncts, so the subsequent WHERE application keeps the result
    exact.  The join path needs something to join against: the first
    table, an *empty* incoming stream and an other side that does not
    resolve all take the constant/scan path.
    """
    pin = None if where is None else _find_constant_equality(where, binding, table.schema)
    fetch, path = _compile_fetch(table, pin, with_ids=False)
    line = f"{binding}: {path}"

    def access(stream: list, params: tuple, plan: list) -> tuple[list, int]:
        found = fetch(params)
        plan.append(line)
        examined = len(found) * max(1, len(stream))
        return [rows + (row,) for rows in stream for row in found], examined

    join = None if where is None or not env else _find_join_equality(where, binding, table)
    if join is None or isinstance(_resolve(join[1], env), str):
        return access
    column, other_ref, _equality = join
    other = _compile_column(other_ref, env)
    lookup = _index_lookup(table, column, with_ids=False)
    join_line = f"{binding}: index join on {column}"

    def index_join(stream: list, params: tuple, plan: list) -> tuple[list, int]:
        if not stream:
            return access(stream, params, plan)
        plan.append(join_line)
        out = [
            rows + (row,) for rows in stream for row in lookup(other(rows, params))
        ]
        return out, len(out)

    return index_join


def _compile_join(table: Table, join: ast.Join, slot: int, env: Env) -> Step:
    """Extend each stream element with the rows an explicit JOIN matches.

    With an indexable equality whose other side resolves, candidates
    come from the index per element; otherwise from one full scan --
    taken eagerly when there is no equality, and only once an element
    arrives when the equality's other side does not resolve (the plan
    line still says ``index on``).
    """
    binding = join.table.binding
    equality = _find_join_equality(join.condition, binding, table)
    condition = _compile_expr(
        join.condition, {**env, binding: (slot, table.schema, False)}
    )
    left = join.kind == "LEFT"
    scan = table.scan
    lookup = other = None
    if equality is None:
        line = f"{binding}: {join.kind} join full scan"
    else:
        line = f"{binding}: {join.kind} join index on {equality[0]}"
        if not isinstance(_resolve(equality[1], env), str):
            other = _compile_column(equality[1], env)
            lookup = _index_lookup(table, equality[0], with_ids=False)

    def step(stream: list, params: tuple, plan: list) -> tuple[list, int]:
        plan.append(line)
        if lookup is None and (equality is None or stream):
            candidates = scan()
        out = []
        examined = 0
        for rows in stream:
            if lookup is not None:
                candidates = lookup(other(rows, params))
            examined += len(candidates)
            matched = False
            for row in candidates:
                child = rows + (row,)
                if condition(child, params):
                    out.append(child)
                    matched = True
            if left and not matched:
                out.append(rows + (None,))
        return out, examined

    return step


def _compile_match(
    table: Table, where: ast.Expression | None
) -> Callable[[tuple], tuple[list[tuple[int, list[object]]], int]]:
    """``match(params)`` -> ((rowid, row) pairs matching ``where``, examined)."""
    schema = table.schema
    pin = None
    if where is not None:
        pin = _find_constant_equality(
            where, schema.name, schema
        ) or _find_constant_equality(where, "", schema)
    fetch, _path = _compile_fetch(table, pin, with_ids=True)
    if where is None:
        predicate = None
    else:
        predicate = _compile_expr(where, {schema.name: (0, schema, False)})

    def match(params: tuple) -> tuple[list[tuple[int, list[object]]], int]:
        candidates = fetch(params)
        if predicate is None:
            return candidates, len(candidates)
        matches = [pair for pair in candidates if predicate((pair[1],), params)]
        return matches, len(candidates)

    return match


def _compile_fetch(
    table: Table, pin: tuple[str, ast.Expression] | None, with_ids: bool
) -> tuple[Callable[[tuple], list], str]:
    """(``fetch(params)``, EXPLAIN path) for one table's candidate rows.

    ``pin`` is a ``column = constant`` conjunct: through the primary key
    or an index when the column has one, else a full scan -- after
    evaluating the constant, so a missing parameter raises either way.
    """
    scan = (lambda: list(table.rows())) if with_ids else table.scan
    if pin is None:
        return (lambda params: scan()), "full scan"
    column, expr = pin
    value = _compile_expr(expr, {})
    if table.primary_key != column and not table.has_index(column):

        def checked_scan(params: tuple) -> list:
            value(None, params)
            return scan()

        return checked_scan, "full scan"
    lookup = _index_lookup(table, column, with_ids)
    path = "primary key" if table.primary_key == column else "index eq"
    return (lambda params: lookup(value(None, params))), f"{path} {column}"


def _index_lookup(table: Table, column: str, with_ids: bool) -> Callable[[object], list]:
    """``lookup(value)`` -> rows (or (rowid, row) pairs) with column = value."""
    if table.primary_key == column:
        lookup_pk = table.lookup_pk
        if with_ids:
            return lambda value: [] if (hit := lookup_pk(value)) is None else [hit]
        return lambda value: [] if (hit := lookup_pk(value)) is None else [hit[1]]
    lookup_index = table.lookup_index
    if with_ids:
        return lambda value: lookup_index(column, value)
    return lambda value: [row for _rowid, row in lookup_index(column, value)]


def _find_join_equality(
    where: ast.Expression, binding: str, table: Table
) -> tuple[str, ast.ColumnRef, ast.BinaryOp] | None:
    """Find ``binding.col = <other-binding column>`` with an index on col:
    (col, the other column, the equality)."""
    if isinstance(where, ast.BinaryOp) and where.op == "AND":
        found = _find_join_equality(where.left, binding, table)
        if found is not None:
            return found
        return _find_join_equality(where.right, binding, table)
    if isinstance(where, ast.BinaryOp) and where.op == "=":
        for mine, other in (
            (where.left, where.right),
            (where.right, where.left),
        ):
            if not isinstance(mine, ast.ColumnRef):
                continue
            if mine.table is None or mine.table.lower() != binding:
                continue
            if not isinstance(other, ast.ColumnRef):
                continue
            if other.table is not None and other.table.lower() == binding:
                continue
            column = mine.column.lower()
            if not table.schema.has_column(column):
                continue
            if table.primary_key == column or table.has_index(column):
                return column, other, where
    return None


def _find_constant_equality(
    where: ast.Expression, binding: str, schema: TableSchema
) -> tuple[str, ast.Expression] | None:
    """Find ``column = constant`` in a conjunctive WHERE for ``binding``.

    Returns (column, constant-expression) for the first equality whose
    column belongs to ``schema`` and whose other side is a literal or
    placeholder.  ``binding`` may be the empty string to accept
    unqualified references.
    """
    if isinstance(where, ast.BinaryOp) and where.op == "AND":
        left = _find_constant_equality(where.left, binding, schema)
        if left is not None:
            return left
        return _find_constant_equality(where.right, binding, schema)
    if isinstance(where, ast.BinaryOp) and where.op == "=":
        for column_side, value_side in (
            (where.left, where.right),
            (where.right, where.left),
        ):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if not isinstance(value_side, (ast.Literal, ast.Placeholder)):
                continue
            if column_side.table is not None and binding and (
                column_side.table.lower() != binding
            ):
                continue
            if not schema.has_column(column_side.column):
                continue
            return column_side.column.lower(), value_side
    return None


# ---------------------------------------------------------------------------
# Rewrite rule: fewer rows examined, the same outcome
# ---------------------------------------------------------------------------

PIN_FIRST = "pin-first"
_NUMERIC = (ColumnType.INT, ColumnType.FLOAT, ColumnType.DATETIME)


def _compile_pin_first(
    select: ast.Select, tables: dict[str, Table]
) -> tuple[Callable[[tuple], bool], list[str], Callable] | None:
    """The plan of a comma join under **pin-first**, or None when the
    rule does not apply (the FROM-order plan then runs alone).

    When the first FROM table is not pinned (no ``col = constant``
    conjunct on its primary key or an index) and the second is, the
    second drives and the first joins to it through an index equality;
    the other tables follow in FROM order, the WHERE runs over the
    finished stream, and the survivors are sorted back into FROM-order
    enumeration by their per-slot rowid tuple (scans and index lookups
    hand out rows in rowid order, so the FROM-order loop enumerates in
    exactly that lexicographic order).

    Returns (``ready(params)``, EXPLAIN lines, ``execute(params)`` ->
    (columns, rows, rows examined)).  ``ready`` is the run-time half of
    the proof that the rewrite cannot change the outcome: no conjunct may
    raise (which row raises first depends on the enumeration order), so
    every placeholder the WHERE reads must be within the vector and NULL,
    a number or a string, and each one an ordering comparison reads must
    be of its column's kind.  When it fails, the statement runs in FROM
    order.

    Why the rewrite never examines more rows than FROM order: after its
    first two steps the stream is a subset of FROM order's, and every
    later step extends it through the same access path.  Those two steps
    ``ready`` bounds: it admits the driving table only when its pinned
    rows are no more than the first table holds (FROM order scans that
    table), and the first table's join to the driving table enumerates a
    subset of the pairs FROM order's second step examines -- which is
    why the rule needs that step to be the driving table's pin or an
    index join through the same equality.
    """
    refs = select.tables
    bindings = [ref.binding for ref in refs]
    sources = [tables.get(ref.name.lower()) for ref in refs]
    if select.where is None or select.joins or None in sources:
        return None
    if len(set(bindings)) < len(bindings):
        return None
    where = select.where
    full: Env = {
        binding: (i, table.schema, False)
        for i, (binding, table) in enumerate(zip(bindings, sources))
    }
    pins = [
        _find_constant_equality(where, binding, table.schema)
        for binding, table in zip(bindings, sources)
    ]
    if not _second_drives(where, bindings, sources, pins, full):
        return None
    proof = _cannot_raise(where, full)
    if proof is None:
        return None
    demands: dict[int, str] = {}
    for index, kind in proof:
        demands[index] = kind if demands.get(index, kind) == kind else "conflict"
    order = [1, 0, *range(2, len(refs))]
    # Stream elements interleave (rowid, row) per step: slot 2p + 1.
    env: Env = {
        binding: (2 * order.index(i) + 1, full[binding][1], False)
        for i, binding in enumerate(bindings)
    }

    steps, lines = [], []
    for position, i in enumerate(order):
        binding, table = bindings[i], sources[i]
        bound = {bindings[j]: env[bindings[j]] for j in order[:position]}
        join = _find_join_equality(where, binding, table) if position else None
        if join is not None and not isinstance(_resolve(join[1], bound), str):
            steps.append(_probe(table, join[0], _compile_column(join[1], bound)))
            lines.append(f"{binding}: index join on {join[0]}")
        else:
            fetch, path = _compile_fetch(table, pins[i], with_ids=True)
            steps.append(_extend(fetch))
            lines.append(f"{binding}: {path}")
    lines[0] += f" [{PIN_FIRST}]"

    keep = _compile_expr(where, env)
    finish = _compile_finish(select, env)
    restore = operator.itemgetter(*[2 * order.index(i) for i in range(len(order))])
    ready = _bounded(_parameters_ready(where, demands), pins[1], sources[1], sources[0])

    def execute(params: tuple) -> tuple[list[str], list[tuple], int]:
        stream, examined = _UNIT_STREAM, 0
        for step in steps:
            stream, count = step(stream, params)
            examined += count
        stream = [rows for rows in stream if keep(rows, params)]
        stream.sort(key=restore)
        columns, out = finish(stream, params)
        return columns, out, examined

    return ready, lines, execute


def _second_drives(
    where: ast.Expression,
    bindings: list[str],
    sources: list[Table],
    pins: list[tuple[str, ast.Expression] | None],
    full: Env,
) -> bool:
    """Whether pin-first applies: the first FROM table is not pinned
    through its primary key or an index, the second is, the first joins
    to the second through an index equality, and FROM order's second
    step is the second table's pin or an index join through that same
    equality."""

    def indexed(i: int) -> bool:
        pin, table = pins[i], sources[i]
        return pin is not None and (table.primary_key == pin[0] or table.has_index(pin[0]))

    if len(sources) < 2 or indexed(0) or not indexed(1):
        return False
    first = _find_join_equality(where, bindings[0], sources[0])
    second = _find_join_equality(where, bindings[1], sources[1])
    if first is None or isinstance(_resolve(first[1], {bindings[1]: full[bindings[1]]}), str):
        return False
    return (
        second is None
        or isinstance(_resolve(second[1], {bindings[0]: full[bindings[0]]}), str)
        or second[2] is first[2]
    )


def _bounded(
    ready: Callable[[tuple], bool],
    pin: tuple[str, ast.Expression],
    lead: Table,
    first: Table,
) -> Callable[[tuple], bool]:
    """``ready`` that also admits pin-first's leading table ``lead`` only
    when its pinned rows are no more than ``first`` holds."""
    column, constant = pin
    value = _compile_expr(constant, {})
    size = lead.index_size

    def bounded(params: tuple) -> bool:
        return ready(params) and size(column, value(None, params)) <= len(first)

    return bounded


def _extend(fetch: Callable[[tuple], list]) -> Callable[[list, tuple], tuple[list, int]]:
    """A rewritten step through an access path: every element times
    every (rowid, row) pair the path fetches."""

    def access(stream: list, params: tuple) -> tuple[list, int]:
        found = fetch(params)
        return [rows + pair for rows in stream for pair in found], len(found) * len(stream)

    return access


def _probe(
    table: Table, column: str, other: Compiled
) -> Callable[[list, tuple], tuple[list, int]]:
    """A rewritten index join: every element times the (rowid, row)
    pairs whose ``column`` equals its value of ``other`` (the WHERE
    still checks the equality, so a NULL probe keeps nothing)."""
    lookup = _index_lookup(table, column, with_ids=True)

    def index_join(stream: list, params: tuple) -> tuple[list, int]:
        out = [rows + pair for rows in stream for pair in lookup(other(rows, params))]
        return out, len(out)

    return index_join


def _parameters_ready(
    where: ast.Expression, demands: dict[int, str]
) -> Callable[[tuple], bool]:
    """``ready(params)``: every placeholder in ``where`` is within the
    vector, NULL or of a kind no comparison fails on, and of the kind
    ``demands`` asks of it (a NULL compares false, never raises)."""
    indices = sorted(
        {node.index for node in _nodes(where) if isinstance(node, ast.Placeholder)}
    )
    top = indices[-1] if indices else -1

    def ready(params: tuple) -> bool:
        if len(params) <= top:
            return False
        for index in indices:
            kind = _kind(params[index])
            if kind == "other" or (
                kind != "null" and demands.get(index, kind) != kind
            ):
                return False
        return True

    return ready


def _cannot_raise(expr: ast.Expression, env: Env) -> list[tuple[int, str]] | None:
    """Why evaluating ``expr`` (a WHERE or part of one) over ``env``
    cannot raise: the (placeholder, kind) pairs its parameters must
    satisfy -- or None when nothing can prove it (arithmetic, aggregates,
    an unresolved or ambiguous reference, an ordering comparison across
    kinds)."""
    if isinstance(expr, ast.BinaryOp) and expr.op in ("AND", "OR"):
        left, right = _cannot_raise(expr.left, env), _cannot_raise(expr.right, env)
        return None if left is None or right is None else left + right
    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        return _cannot_raise(expr.operand, env)
    if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS:
        return _ordered((expr.left, expr.right), env)
    if isinstance(expr, ast.Between):
        return _ordered((expr.operand, expr.low, expr.high), env)
    if isinstance(expr, ast.BinaryOp) and expr.op in ("=", "<>", "LIKE", "NOT LIKE"):
        operands: tuple[ast.Expression, ...] = (expr.left, expr.right)
    elif isinstance(expr, ast.IsNull):
        operands = (expr.operand,)
    elif isinstance(expr, ast.InList):
        operands = (expr.operand, *expr.items)
    else:
        operands = (expr,)
    return None if any(_operand(each, env) is None for each in operands) else []


def _ordered(operands: tuple[ast.Expression, ...], env: Env) -> list[tuple[int, str]] | None:
    """An ordering comparison cannot raise when its operands are of one
    kind (or one is the NULL literal); placeholders are held to that kind."""
    values = [_operand(each, env) for each in operands]
    if None in values:
        return None
    if "null" in values:
        return []
    kinds = {value for value in values if isinstance(value, str)}
    if len(kinds) != 1 or "other" in kinds:
        return None
    kind = kinds.pop()
    return [(value, kind) for value in values if isinstance(value, int)]


def _operand(expr: ast.Expression, env: Env) -> str | int | None:
    """What ``expr`` evaluates to without raising: a kind, a placeholder
    index (the parameter decides), or None when evaluating it may raise.
    Stored values are of their column's type (rows are coerced)."""
    if isinstance(expr, ast.Literal):
        return _kind(expr.value)
    if isinstance(expr, ast.Placeholder):
        return expr.index
    if isinstance(expr, ast.ColumnRef):
        target = _resolve(expr, env)
        if isinstance(target, str) or not target[1].has_column(expr.column):
            return None
        schema = target[1]
        return "num" if schema.columns[schema.position(expr.column)].type in _NUMERIC else "str"
    return None


def _kind(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return "num"
    return "str" if isinstance(value, str) else "other"


def _nodes(expr: ast.Expression):
    """``expr`` and every expression below it."""
    yield expr
    for name in ("left", "right", "operand", "low", "high"):
        child = getattr(expr, name, None)
        if child is not None:
            yield from _nodes(child)
    for child in getattr(expr, "items", ()):
        yield from _nodes(child)


# ---------------------------------------------------------------------------
# After the WHERE: sort / slice / project, or group / aggregate / sort / slice
# ---------------------------------------------------------------------------

Finish = Callable[[list, tuple], tuple[list[str], list[tuple[object, ...]]]]


def _compile_finish(select: ast.Select, env: Env) -> Finish:
    if select.group_by or _has_aggregate(select):
        return _compile_grouped(select, env)
    return _compile_plain(select, env)


def _compile_plain(select: ast.Select, env: Env) -> Finish:
    """Sort full stream elements (any column is orderable, projected or
    not), then slice, then project."""
    order = [
        (_compile_expr(item.expression, env), item.descending)
        for item in select.order_by
    ]
    offset, limit = _compile_bound(select.offset), _compile_bound(select.limit)
    distinct = select.distinct
    project = _compile_projection(select, env)

    def finish(stream: list, params: tuple) -> tuple[list[str], list[tuple]]:
        stream = _sorted(stream, order, params)
        # DISTINCT applies its LIMIT to the de-duplicated projection.
        stream = _slice(stream, offset, None if distinct else limit, params)
        columns, out = project(stream, params)
        if distinct:
            out = _slice(_dedupe(out), None, limit, params)
        return columns, out

    return finish


def _compile_projection(select: ast.Select, env: Env) -> Finish:
    items: list[tuple[str, Compiled]] = []
    for item in select.items:
        expr = item.expression
        if not isinstance(expr, ast.Star):
            items.append((item.alias or _default_name(expr), _compile_expr(expr, env)))
            continue
        names = [
            name for name in env if expr.table is None or name == expr.table.lower()
        ]
        if not names:
            # Raised even for an empty stream, but only once it is built.
            return _raises(ExecutionError, f"cannot expand {expr.unparse()}")
        for name in names:
            for column in env[name][1].column_names:
                ref = ast.ColumnRef(column=column, table=name)
                items.append((column, _compile_column(ref, env)))
    columns = [name for name, _value in items]
    values = [value for _name, value in items]

    def project(stream: list, params: tuple) -> tuple[list[str], list[tuple]]:
        out = [tuple([value(rows, params) for value in values]) for rows in stream]
        return list(columns), out

    return project


def _compile_grouped(select: ast.Select, env: Env) -> Finish:
    keys = [_compile_expr(expr, env) for expr in select.group_by]
    columns = [
        item.alias or _default_name(item.expression) for item in select.items
    ]
    values = [_compile_group_expr(item.expression, env) for item in select.items]
    having = None
    if select.having is not None:
        having = _compile_group_expr(select.having, env)
    order = [
        (_compile_output_key(item.expression, columns), item.descending)
        for item in select.order_by
    ]
    offset, limit = _compile_bound(select.offset), _compile_bound(select.limit)

    def finish(stream: list, params: tuple) -> tuple[list[str], list[tuple]]:
        if keys:
            groups: dict[tuple, list] = {}
            for rows in stream:
                group = tuple([key(rows, params) for key in keys])
                groups.setdefault(group, []).append(rows)
            member_lists = list(groups.values())
        else:
            member_lists = [stream]
        out = [
            tuple([value(members, params) for value in values])
            for members in member_lists
            if having is None or having(members, params)
        ]
        out = _slice(_sorted(out, order, params), offset, limit, params)
        return list(columns), out

    return finish


def _compile_output_key(expr: ast.Expression, columns: list[str]) -> Compiled:
    """An ORDER BY key of a grouped SELECT: a projected column's name or
    ordinal, read from the already-projected row."""
    index = None
    if isinstance(expr, ast.ColumnRef):
        name = expr.column.lower()
        index = next(
            (i for i, column in enumerate(columns) if column.lower() == name), None
        )
    if index is None and isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        index = expr.value - 1
    if index is None:
        return _raises(
            ExecutionError,
            f"ORDER BY key {expr.unparse()!r} must name a projected column",
        )
    return lambda row, params: row[index]


def _compile_bound(expr: ast.Expression | None) -> Compiled | None:
    """LIMIT / OFFSET: evaluated with no binding in scope."""
    return None if expr is None else _compile_expr(expr, {})


def _slice(
    items: list, offset: Compiled | None, limit: Compiled | None, params: tuple
) -> list:
    if offset is not None:
        items = items[int(offset(None, params)) :]
    if limit is not None:
        items = items[: int(limit(None, params))]
    return items


def _sorted(items: list, order: list[tuple[Compiled, bool]], params: tuple) -> list:
    """``items`` stably sorted by the ORDER BY keys, NULLs first ascending
    and last descending: every key of every item is evaluated first, item
    by item (so the first key that raises is the interpreter's), then one
    native sort per key, the last key first."""
    if not order:
        return items
    keys = [[value(item, params) for value, _descending in order] for item in items]
    indices = list(range(len(items)))
    for position in reversed(range(len(order))):
        column = [key[position] for key in keys]
        if None in column:
            indices.sort(
                key=lambda i: (column[i] is not None, column[i]),
                reverse=order[position][1],
            )
        else:
            indices.sort(key=column.__getitem__, reverse=order[position][1])
    return [items[i] for i in indices]


def _compile_group_expr(expr: ast.Expression, env: Env, unknown: bool = False) -> Compiled:
    """Compile ``expr`` to ``g(members, params)`` over one group.

    Aggregates fold the members; operators combine sub-results (without
    short-circuit: AND/OR are not operators here, as in the
    interpreter); anything else is read from the group's first member.
    Beneath a NOT a comparison with NULL is unknown, as in
    :func:`_compile_expr`.
    """
    if isinstance(expr, ast.FunctionCall) and expr.name in _AGGREGATES:
        return _compile_aggregate(expr, env)
    if isinstance(expr, ast.BinaryOp):
        return _binary(
            expr.op,
            _compile_group_expr(expr.left, env, unknown),
            _compile_group_expr(expr.right, env, unknown),
            unknown,
        )
    if isinstance(expr, ast.UnaryOp):
        operand = _compile_group_expr(expr.operand, env, unknown or expr.op == "NOT")
        return _unary(expr.op, operand)
    scalar = _compile_expr(expr, env, unknown)
    return lambda members, params: scalar(members[0], params) if members else None


def _compile_aggregate(call: ast.FunctionCall, env: Env) -> Compiled:
    name, arg, distinct = call.name, call.args[0], call.distinct
    if name == "COUNT" and isinstance(arg, ast.Star):
        return lambda members, params: len(members)
    value = _compile_expr(arg, env)
    fold = {
        "COUNT": len,
        "SUM": sum,
        "AVG": lambda values: sum(values) / len(values),
        "MIN": min,
        "MAX": max,
    }[name]

    def aggregate(members: list, params: tuple) -> object:
        values = [
            found
            for rows in members
            if (found := value(rows, params)) is not None
        ]
        if distinct:
            values = _dedupe(values)
        if not values and name != "COUNT":
            return None
        return fold(values)

    return aggregate


def _has_aggregate(select: ast.Select) -> bool:
    """True when any projection item contains an aggregate call."""

    def contains(expr: ast.Expression) -> bool:
        if isinstance(expr, ast.FunctionCall) and expr.name in _AGGREGATES:
            return True
        if isinstance(expr, ast.BinaryOp):
            return contains(expr.left) or contains(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return contains(expr.operand)
        return False

    return any(contains(item.expression) for item in select.items)


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


def _compile_expr(expr: ast.Expression, env: Env, unknown: bool = False) -> Compiled:
    """Compile ``expr`` to ``f(rows, params)`` over the bindings in ``env``.

    SQL's logic is three-valued, but a WHERE or ON keeps a row only when
    its condition is true, so unknown and false select alike and the
    plans answer False for unknown -- except beneath a ``NOT``, where
    ``NOT unknown`` must stay unknown rather than become true.  There
    (``unknown``) comparisons, LIKE, BETWEEN, AND and OR answer None
    for unknown; ``[NOT] IN`` always does.
    """
    if isinstance(expr, ast.Literal):
        constant = expr.value
        return lambda rows, params: constant
    if isinstance(expr, ast.Placeholder):
        return _compile_placeholder(expr.index)
    if isinstance(expr, ast.ColumnRef):
        return _compile_column(expr, env)
    if isinstance(expr, ast.BinaryOp):
        left = _compile_expr(expr.left, env, unknown)
        right = _compile_expr(expr.right, env, unknown)
        if expr.op == "AND":
            if unknown:
                return _and_unknown(left, right)
            return lambda rows, params: (
                True if left(rows, params) and right(rows, params) else False
            )
        if expr.op == "OR":
            if unknown:
                return _or_unknown(left, right)
            return lambda rows, params: (
                True if left(rows, params) or right(rows, params) else False
            )
        if (
            expr.op in ("LIKE", "NOT LIKE")
            and isinstance(expr.right, (ast.Literal, ast.Placeholder))
            and not unknown
        ):
            return _compile_like(left, right, negated=expr.op == "NOT LIKE")
        return _binary(expr.op, left, right, unknown)
    if isinstance(expr, ast.UnaryOp):
        return _unary(expr.op, _compile_expr(expr.operand, env, unknown or expr.op == "NOT"))
    if isinstance(expr, ast.IsNull):
        operand = _compile_expr(expr.operand, env, unknown)
        if expr.negated:
            return lambda rows, params: operand(rows, params) is not None
        return lambda rows, params: operand(rows, params) is None
    if isinstance(expr, ast.InList):
        operand = _compile_expr(expr.operand, env, unknown)
        items = [_compile_expr(item, env, unknown) for item in expr.items]
        negated = expr.negated

        def in_list(rows: object, params: tuple) -> bool | None:
            value = operand(rows, params)  # first, as the interpreter does
            return _membership(value, [item(rows, params) for item in items], negated)

        return in_list
    if isinstance(expr, _Subquery):
        operand = _compile_expr(expr.operand, env, unknown)
        inner, negated = expr.inner, expr.negated

        def in_subquery(rows: object, params: tuple) -> bool | None:
            # Membership as IN (list) evaluates it, against the inner
            # SELECT's first column, run afresh for each outer row.
            values = [row[0] for row in inner(params).rows]
            return _membership(operand(rows, params), values, negated)

        return in_subquery
    if isinstance(expr, ast.Between):
        operand = _compile_expr(expr.operand, env, unknown)
        low = _compile_expr(expr.low, env, unknown)
        high = _compile_expr(expr.high, env, unknown)
        negated, on_null = expr.negated, None if unknown else False

        def between(rows: object, params: tuple) -> bool | None:
            value, lo, hi = operand(rows, params), low(rows, params), high(rows, params)
            if value is None or lo is None or hi is None:
                if _between_unknown(value, lo, hi):
                    return on_null
                return negated  # a known side is false: not inside
            inside = lo <= value <= hi  # type: ignore[operator]
            return (not inside) if negated else inside

        return between
    if isinstance(expr, ast.FunctionCall):
        return _raises(
            ExecutionError, f"aggregate {expr.name} used outside aggregation context"
        )
    if isinstance(expr, ast.Star):
        return _raises(ExecutionError, "* is not a scalar expression")
    return _raises(ExecutionError, f"cannot evaluate {type(expr).__name__}")


def _between_unknown(value: object, lo: object, hi: object) -> bool:
    """``lo <= value AND value <= hi`` with a NULL among the three, in
    SQL's three-valued logic: unknown (True here) unless the side with no
    NULL is false, which makes the conjunction false."""
    if value is None or (lo is None and hi is None):
        return True
    return value <= hi if lo is None else lo <= value  # type: ignore[operator]


def _membership(value: object, values: list, negated: bool) -> bool | None:
    """``value [NOT] IN values`` in SQL's three-valued logic: None
    (unknown, which selects no row) when ``value`` is NULL, or when it
    matches no value and one of them is NULL.  No row is in an empty
    set, so an empty one answers ``negated`` whatever ``value`` is."""
    if not values:
        return negated
    if value is None:
        return None
    if value in values:
        return not negated
    if None in values:
        return None
    return negated


@dataclass(frozen=True)
class _Subquery(ast.Expression):
    """``operand [NOT] IN (SELECT ...)`` with the inner SELECT compiled
    (:meth:`Executor._with_subqueries`); never leaves the executor."""

    operand: ast.Expression
    inner: Callable[[tuple], QueryResult]
    negated: bool = False


def _compile_placeholder(index: int) -> Compiled:
    def placeholder(rows: object, params: tuple) -> object:
        try:
            return params[index]
        except IndexError:
            raise ExecutionError(
                f"missing parameter {index}: got {len(params)}"
            ) from None

    return placeholder


def _resolve(ref: ast.ColumnRef, env: Env) -> tuple[int, TableSchema, bool] | str:
    """The binding ``ref`` reads in ``env``, or -- as a string -- the
    message of the :class:`ExecutionError` that resolving it raises."""
    if ref.table is not None:
        return env.get(ref.table.lower()) or f"unknown table binding {ref.table!r}"
    matches = [entry for entry in env.values() if entry[1].has_column(ref.column)]
    if len(matches) == 1:
        return matches[0]
    return f"{'ambiguous' if matches else 'unknown'} column {ref.column!r}"


def _compile_column(ref: ast.ColumnRef, env: Env) -> Compiled:
    target = _resolve(ref, env)
    if isinstance(target, str):
        return _raises(ExecutionError, target)
    slot, schema, nullable = target
    if not schema.has_column(ref.column):
        # Qualified reference to a column its table lacks: NULL on an
        # outer-join null row, an error on a real one.
        missing = _raises(SchemaError, _no_column(schema, ref.column))
        return lambda rows, params: None if rows[slot] is None else missing()
    position = schema.position(ref.column)
    if not nullable:
        return lambda rows, params: rows[slot][position]

    def column(rows: tuple, params: tuple) -> object:
        row = rows[slot]
        return None if row is None else row[position]

    return column


def _compile_like(left: Compiled, right: Compiled, negated: bool) -> Compiled:
    """LIKE against a literal or parameter pattern: the matcher is bound
    once per execution (the pattern is the same object for every row)."""
    bound: list = [None, None]  # pattern value, its matcher

    def like(rows: object, params: tuple) -> bool:
        text, pattern = left(rows, params), right(rows, params)
        if text is None or pattern is None:
            return False
        if pattern is not bound[0]:
            bound[:] = pattern, _like_matcher(str(pattern))
        matched = bound[1](str(text)) is not None
        return (not matched) if negated else matched

    return like


def _binary(op: str, left: Compiled, right: Compiled, unknown: bool = False) -> Compiled:
    """``left <op> right`` with SQL NULL handling (both sides evaluated);
    ``unknown``: a comparison with NULL answers None, not False."""
    if op == "=" and not unknown:

        def equals(x: object, params: tuple) -> object:
            a, b = left(x, params), right(x, params)
            return False if a is None or b is None else a == b

        return equals
    apply = (_UNKNOWN_OPS if unknown else _BINARY_OPS).get(op) or _unknown_operator(op)
    return lambda x, params: apply(left(x, params), right(x, params))


def _and_unknown(left: Compiled, right: Compiled) -> Compiled:
    """Three-valued AND: false if either side is, else unknown if
    either is, else true."""

    def both(x: object, params: tuple) -> bool | None:
        a = left(x, params)
        if a is not None and not a:
            return False
        b = right(x, params)
        if b is not None and not b:
            return False
        return None if a is None or b is None else True

    return both


def _or_unknown(left: Compiled, right: Compiled) -> Compiled:
    """Three-valued OR: true if either side is, else unknown if either
    is, else false."""

    def either(x: object, params: tuple) -> bool | None:
        a = left(x, params)
        if a:
            return True
        b = right(x, params)
        if b:
            return True
        return None if a is None or b is None else False

    return either


def _unary(op: str, operand: Compiled) -> Compiled:
    if op == "NOT":
        # NOT unknown is unknown (its operand was compiled to keep it).
        return lambda x, params: (
            None if (value := operand(x, params)) is None else not value
        )
    if op == "-":
        return (
            lambda x, params: None
            if (value := operand(x, params)) is None
            else -value  # type: ignore[operator]
        )
    return _raises(ExecutionError, f"unknown unary operator {op!r}")


def _operator(
    symbol: str,
    compute: Callable[[object, object], object],
    verb: str,
    on_null: object,
) -> Callable[[object, object], object]:
    """``compute`` with SQL NULL handling and type errors reported."""

    def apply(left: object, right: object) -> object:
        if left is None or right is None:
            return on_null
        try:
            return compute(left, right)
        except TypeError as exc:
            raise ExecutionError(f"cannot {verb} {left!r} {symbol} {right!r}") from exc

    return apply


def _unknown_operator(op: str) -> Callable[[object, object], object]:
    def apply(left: object, right: object) -> object:
        if left is None or right is None:
            return None
        raise ExecutionError(f"unknown operator {op!r}")

    return apply


def _like(text: object, pattern: object) -> bool:
    if text is None or pattern is None:
        return False
    return _like_matcher(str(pattern))(str(text)) is not None


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}
#: Every operator but ``=`` (inlined in :func:`_binary`); comparisons
#: with NULL are false, arithmetic with NULL is NULL.
_BINARY_OPS: dict[str, Callable[[object, object], object]] = {
    "<>": lambda a, b: False if a is None or b is None else a != b,
    "LIKE": _like,
    "NOT LIKE": lambda a, b: False if a is None or b is None else not _like(a, b),
    **{op: _operator(op, fn, "compare", False) for op, fn in _COMPARISONS.items()},
    **{op: _operator(op, fn, "apply", None) for op, fn in _ARITHMETIC.items()},
}
#: The same beneath a NOT, where a comparison with NULL is unknown (None);
#: ``=`` included.
_UNKNOWN_OPS: dict[str, Callable[[object, object], object]] = {
    **_BINARY_OPS,
    "=": lambda a, b: None if a is None or b is None else a == b,
    "<>": lambda a, b: None if a is None or b is None else a != b,
    "LIKE": lambda a, b: None if a is None or b is None else _like(a, b),
    "NOT LIKE": lambda a, b: None if a is None or b is None else not _like(a, b),
    **{op: _operator(op, fn, "compare", None) for op, fn in _COMPARISONS.items()},
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _raises(exc_type: type[Exception], message: str) -> Callable[..., object]:
    """A stand-in for any plan part: raises when (and only if) reached."""

    def fail(*_args: object) -> object:
        raise exc_type(message)

    return fail


def _no_column(schema: TableSchema, column: str) -> str:
    return f"table {schema.name!r} has no column {column!r}"


@lru_cache(maxsize=512)
def _like_matcher(pattern: str) -> Callable[[str], object]:
    """SQL LIKE as a full-match function: % is any run, _ any one
    character (newlines included), case-insensitive."""
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.compile(regex, re.IGNORECASE | re.DOTALL).fullmatch


def _default_name(expr: ast.Expression) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FunctionCall):
        inner = ", ".join(arg.unparse() for arg in expr.args)
        return f"{expr.name.lower()}({inner})"
    return expr.unparse()


def _dedupe(items: list) -> list:
    """Distinct items in first-seen order."""
    return list(dict.fromkeys(items))
