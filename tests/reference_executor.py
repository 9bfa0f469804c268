"""The tree-walking SQL interpreter, kept as the test oracle.

This is ``src/repro/db/executor.py`` as it stood before statements were
compiled into plans, verbatim: ``repro.db.executor`` must agree with it
on every result, counter, EXPLAIN line and error (see
``tests/test_db_compiled_plans.py``).  The result dataclasses are
imported from production (``Database`` type-checks them) and the
additions are :meth:`Executor.compile`, the entry point :class:`~repro.db.engine.
Database` now calls, which dispatches to the interpreter's entry points;
the before-image an UPDATE/DELETE result carries (``_write_result``); and
the production undo of an UPDATE that raises part-way, so a failing
statement leaves the twin tables equal.  :func:`oracle_database` builds a
``Database`` running on it.

``[NOT] IN`` and ``NOT`` follow the plan executor into SQL's
three-valued logic: membership with a NULL operand, or a NULL member
and no match, is unknown (None), and NOT of unknown is unknown.

Known, intended divergence: ``_like`` here still lets ``.`` stop at a
newline (the bug the plan executor fixed), so differential inputs keep
newlines out of LIKE operands.

Original module docstring:

Statement evaluation against :class:`~repro.db.storage.Table` stores.

The executor evaluates parsed ASTs: SELECT with nested-loop joins (with
an index fast path for equality predicates on indexed columns),
aggregation, ORDER BY/LIMIT, plus INSERT/UPDATE/DELETE returning affected
row counts.  It also reports ``rows_examined`` per statement, which the
load simulator's cost model charges as database work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.executor import QueryResult, UpdateResult, undo_updates  # production
from repro.db.schema import TableSchema
from repro.db.storage import Table
from repro.errors import ExecutionError, SchemaError
from repro.sql import ast_nodes as ast

_NULL = object()  # sentinel distinguishing "no binding" from SQL NULL


@dataclass
class _Scope:
    """One binding in scope: name -> (schema, positional row)."""

    bindings: dict[str, tuple[TableSchema, list[object] | None]] = field(
        default_factory=dict
    )

    def child(self) -> "_Scope":
        clone = _Scope()
        clone.bindings = dict(self.bindings)
        return clone

    def resolve(self, ref: ast.ColumnRef) -> object:
        """Resolve a column reference to its value in this scope."""
        if ref.table is not None:
            binding = ref.table.lower()
            try:
                schema, row = self.bindings[binding]
            except KeyError:
                raise ExecutionError(f"unknown table binding {ref.table!r}") from None
            if row is None:
                return None  # outer-join null row
            return row[schema.position(ref.column)]
        matches = []
        for schema, row in self.bindings.values():
            if schema.has_column(ref.column):
                matches.append((schema, row))
        if not matches:
            raise ExecutionError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column {ref.column!r}")
        schema, row = matches[0]
        if row is None:
            return None
        return row[schema.position(ref.column)]


class Executor:
    """Evaluates statements against a table dictionary."""

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables
        self.rows_examined_total = 0
        #: Access-path decisions of the most recent SELECT, as
        #: "(binding) path" strings -- the EXPLAIN output.
        self.last_plan: list[str] = []

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def compile(self, statement: ast.Statement):
        """Adapter (not part of the moved code): a "plan" that interprets."""
        entry = {
            ast.Select: self.execute_select,
            ast.Insert: self.execute_insert,
            ast.Update: self.execute_update,
            ast.Delete: self.execute_delete,
        }[type(statement)]
        return lambda params: entry(statement, params)

    # -- entry points -----------------------------------------------------------

    def execute_select(
        self, select: ast.Select, params: tuple[object, ...]
    ) -> QueryResult:
        examined = 0
        self.last_plan = []

        # Build the row stream from FROM tables and JOINs.
        scopes: list[_Scope] = [_Scope()]
        for table_ref in select.tables:
            scopes, count = self._cross(scopes, table_ref, select, params)
            examined += count
        for join in select.joins:
            scopes, count = self._join(scopes, join, params)
            examined += count

        if select.where is not None:
            scopes = [
                scope
                for scope in scopes
                if _truthy(self._eval(select.where, scope, params))
            ]

        if select.group_by or _has_aggregate(select):
            result = self._aggregate(select, scopes, params)
            result = self._order_limit(select, result, params)
        else:
            # Sort full scopes (any column is orderable, projected or not),
            # then slice, then project.
            if select.order_by:
                scopes = sorted(
                    scopes,
                    key=lambda scope: tuple(
                        _SortValue(
                            self._eval(order.expression, scope, params),
                            order.descending,
                        )
                        for order in select.order_by
                    ),
                )
            if select.offset is not None:
                offset = int(self._eval(select.offset, _Scope(), params))  # type: ignore[arg-type]
                scopes = scopes[offset:]
            if select.limit is not None and not select.distinct:
                limit = int(self._eval(select.limit, _Scope(), params))  # type: ignore[arg-type]
                scopes = scopes[:limit]
            result = self._project(select, scopes, params)
            if select.limit is not None and select.distinct:
                limit = int(self._eval(select.limit, _Scope(), params))  # type: ignore[arg-type]
                result = (result[0], result[1][:limit])
        query_result = QueryResult(
            columns=result[0], rows=result[1], rows_examined=examined
        )
        self.rows_examined_total += examined
        return query_result

    def execute_insert(
        self, insert: ast.Insert, params: tuple[object, ...]
    ) -> UpdateResult:
        table = self._table(insert.table)
        values: dict[str, object] = {}
        scope = _Scope()
        for column, expr in zip(insert.columns, insert.values):
            values[column.lower()] = self._eval(expr, scope, params)
        row = table.schema.coerce_row(values)
        table.insert(row)
        self.rows_examined_total += 1
        return UpdateResult(
            affected=1,
            rows_examined=1,
            last_insert_id=table.last_insert_id,
            columns=table.schema.column_names,
            after=row,
        )

    def execute_update(
        self, update: ast.Update, params: tuple[object, ...]
    ) -> UpdateResult:
        table = self._table(update.table)
        matches, examined = self._match_rows(table, update.where, params)
        applied = []
        try:
            for rowid, row in matches:
                scope = _Scope()
                scope.bindings[table.schema.name] = (table.schema, row)
                new_row = list(row)
                for assignment in update.assignments:
                    position = table.schema.position(assignment.column)
                    value = self._eval(assignment.value, scope, params)
                    new_row[position] = table.schema.columns[position].type.coerce(value)
                table.update_row(rowid, new_row)
                applied.append((rowid, row))
        except Exception:
            undo_updates(table, applied)
            raise
        self.rows_examined_total += examined
        return _write_result(table, matches, examined)

    def execute_delete(
        self, delete: ast.Delete, params: tuple[object, ...]
    ) -> UpdateResult:
        table = self._table(delete.table)
        matches, examined = self._match_rows(table, delete.where, params)
        for rowid, _row in matches:
            table.delete_row(rowid)
        self.rows_examined_total += examined
        return _write_result(table, matches, examined)

    # -- row-stream construction --------------------------------------------------

    def _cross(
        self,
        scopes: list[_Scope],
        table_ref: ast.TableRef,
        select: ast.Select,
        params: tuple[object, ...],
    ) -> tuple[list[_Scope], int]:
        """Extend each scope with rows of ``table_ref``.

        Access-path selection, in priority order: equi-join through an
        index/PK against a column already in scope, constant-equality
        index lookup, full scan (cartesian).  All paths are filters on
        required conjuncts, so the subsequent WHERE application keeps
        the result exact.
        """
        table = self._table(table_ref.name)
        binding = table_ref.binding
        where = select.where

        # Path 1: join equality T.col = <expr resolvable in scope>.
        if where is not None and scopes and scopes[0].bindings:
            join = self._find_join_equality(where, binding, table)
            if join is not None:
                column, other = join
                self.last_plan.append(f"{binding}: index join on {column}")
                out: list[_Scope] = []
                examined = 0
                try:
                    for scope in scopes:
                        value = self._eval(other, scope, params)
                        if table.primary_key == column:
                            hit = table.lookup_pk(value)
                            pairs = [hit] if hit is not None else []
                        else:
                            pairs = table.lookup_index(column, value)
                        examined += len(pairs)
                        for _rowid, row in pairs:
                            child = scope.child()
                            child.bindings[binding] = (table.schema, row)
                            out.append(child)
                    return out, examined
                except ExecutionError:
                    self.last_plan.pop()  # other side not resolvable: fall back

        # Path 2: constant-equality index lookup.
        rows: list[list[object]] | None = None
        examined = 0
        if where is not None:
            pin = _find_constant_equality(where, binding, table.schema)
            if pin is not None:
                column, expr = pin
                value = self._eval(expr, _Scope(), params)
                if table.primary_key == column:
                    hit = table.lookup_pk(value)
                    rows = [hit[1]] if hit is not None else []
                    self.last_plan.append(f"{binding}: primary key {column}")
                elif table.has_index(column):
                    rows = [row for _rowid, row in table.lookup_index(column, value)]
                    self.last_plan.append(f"{binding}: index eq {column}")

        # Path 3: full scan.
        if rows is None:
            rows = [row for _rowid, row in table.rows()]
            self.last_plan.append(f"{binding}: full scan")
        examined = len(rows) * max(1, len(scopes))
        out = []
        for scope in scopes:
            for row in rows:
                child = scope.child()
                child.bindings[binding] = (table.schema, row)
                out.append(child)
        return out, examined

    def _find_join_equality(
        self, where: ast.Expression, binding: str, table: Table
    ) -> tuple[str, ast.Expression] | None:
        """Find ``binding.col = <other-binding expr>`` with an index on col."""
        if isinstance(where, ast.BinaryOp) and where.op == "AND":
            found = self._find_join_equality(where.left, binding, table)
            if found is not None:
                return found
            return self._find_join_equality(where.right, binding, table)
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
                    return column, other
        return None

    def _join(
        self, scopes: list[_Scope], join: ast.Join, params: tuple[object, ...]
    ) -> tuple[list[_Scope], int]:
        table = self._table(join.table.name)
        binding = join.table.binding
        equality = self._find_join_equality(join.condition, binding, table)
        right_rows: list[list[object]] | None = None
        if equality is None:
            right_rows = [row for _rowid, row in table.rows()]
            self.last_plan.append(f"{binding}: {join.kind} join full scan")
        else:
            self.last_plan.append(
                f"{binding}: {join.kind} join index on {equality[0]}"
            )
        examined = 0
        out: list[_Scope] = []
        for scope in scopes:
            if equality is not None:
                column, other = equality
                try:
                    value = self._eval(other, scope, params)
                except ExecutionError:
                    equality = None
                    right_rows = [row for _rowid, row in table.rows()]
                else:
                    if table.primary_key == column:
                        hit = table.lookup_pk(value)
                        candidates = [hit[1]] if hit is not None else []
                    else:
                        candidates = [
                            row for _rowid, row in table.lookup_index(column, value)
                        ]
            if equality is None:
                candidates = right_rows or []
            matched = False
            for row in candidates:
                examined += 1
                child = scope.child()
                child.bindings[binding] = (table.schema, row)
                if _truthy(self._eval(join.condition, child, params)):
                    out.append(child)
                    matched = True
            if join.kind == "LEFT" and not matched:
                child = scope.child()
                child.bindings[binding] = (table.schema, None)
                out.append(child)
        return out, examined

    def _match_rows(
        self,
        table: Table,
        where: ast.Expression | None,
        params: tuple[object, ...],
    ) -> tuple[list[tuple[int, list[object]]], int]:
        """Rows of ``table`` matching ``where`` (index fast path included)."""
        candidates: list[tuple[int, list[object]]]
        if where is not None:
            pin = _find_constant_equality(where, table.schema.name, table.schema)
            if pin is None:
                pin = _find_constant_equality(where, "", table.schema)
            if pin is not None:
                column, expr = pin
                value = self._eval(expr, _Scope(), params)
                if table.primary_key == column:
                    hit = table.lookup_pk(value)
                    candidates = [hit] if hit is not None else []
                elif table.has_index(column):
                    candidates = table.lookup_index(column, value)
                else:
                    candidates = list(table.rows())
            else:
                candidates = list(table.rows())
        else:
            candidates = list(table.rows())
        examined = len(candidates)
        if where is None:
            return candidates, examined
        matches = []
        for rowid, row in candidates:
            scope = _Scope()
            scope.bindings[table.schema.name] = (table.schema, row)
            if _truthy(self._eval(where, scope, params)):
                matches.append((rowid, row))
        return matches, examined

    # -- projection / aggregation -------------------------------------------------

    def _expand_items(
        self, select: ast.Select, scope_example: _Scope | None
    ) -> list[tuple[str, ast.Expression]]:
        """Expand ``*`` items into concrete column references."""
        items: list[tuple[str, ast.Expression]] = []
        for item in select.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                for binding_name, (schema, _row) in self._star_bindings(
                    select, expr
                ).items():
                    for column in schema.column_names:
                        items.append(
                            (column, ast.ColumnRef(column=column, table=binding_name))
                        )
            else:
                name = item.alias or _default_name(expr)
                items.append((name, expr))
        return items

    def _star_bindings(
        self, select: ast.Select, star: ast.Star
    ) -> dict[str, tuple[TableSchema, None]]:
        bindings: dict[str, tuple[TableSchema, None]] = {}
        refs = list(select.tables) + [join.table for join in select.joins]
        for table_ref in refs:
            if star.table is None or table_ref.binding == star.table.lower():
                bindings[table_ref.binding] = (
                    self._table(table_ref.name).schema,
                    None,
                )
        if not bindings:
            raise ExecutionError(f"cannot expand {star.unparse()}")
        return bindings

    def _project(
        self, select: ast.Select, scopes: list[_Scope], params: tuple[object, ...]
    ) -> tuple[list[str], list[tuple[object, ...]]]:
        items = self._expand_items(select, scopes[0] if scopes else None)
        columns = [name for name, _expr in items]
        rows = []
        for scope in scopes:
            rows.append(
                tuple(self._eval(expr, scope, params) for _name, expr in items)
            )
        if select.distinct:
            rows = _dedupe(rows)
        return columns, rows

    def _aggregate(
        self, select: ast.Select, scopes: list[_Scope], params: tuple[object, ...]
    ) -> tuple[list[str], list[tuple[object, ...]]]:
        groups: dict[tuple[object, ...], list[_Scope]] = {}
        if select.group_by:
            for scope in scopes:
                key = tuple(
                    self._eval(expr, scope, params) for expr in select.group_by
                )
                groups.setdefault(key, []).append(scope)
        else:
            groups[()] = scopes

        items = [
            (item.alias or _default_name(item.expression), item.expression)
            for item in select.items
        ]
        columns = [name for name, _expr in items]
        rows: list[tuple[object, ...]] = []
        for _key, members in groups.items():
            if select.having is not None:
                having = self._eval_aggregate(select.having, members, params)
                if not _truthy(having):
                    continue
            rows.append(
                tuple(
                    self._eval_aggregate(expr, members, params)
                    for _name, expr in items
                )
            )
        return columns, rows

    def _eval_aggregate(
        self, expr: ast.Expression, members: list[_Scope], params: tuple[object, ...]
    ) -> object:
        """Evaluate ``expr`` over a group of scopes."""
        if isinstance(expr, ast.FunctionCall) and expr.name in (
            "COUNT",
            "SUM",
            "AVG",
            "MIN",
            "MAX",
        ):
            return self._apply_aggregate(expr, members, params)
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_aggregate(expr.left, members, params)
            right = self._eval_aggregate(expr.right, members, params)
            return _apply_binary(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval_aggregate(expr.operand, members, params)
            return _apply_unary(expr.op, operand)
        if members:
            return self._eval(expr, members[0], params)
        return None

    def _apply_aggregate(
        self,
        call: ast.FunctionCall,
        members: list[_Scope],
        params: tuple[object, ...],
    ) -> object:
        arg = call.args[0]
        if call.name == "COUNT" and isinstance(arg, ast.Star):
            return len(members)
        values = [self._eval(arg, scope, params) for scope in members]
        values = [value for value in values if value is not None]
        if call.distinct:
            values = _dedupe_values(values)
        if call.name == "COUNT":
            return len(values)
        if not values:
            return None
        if call.name == "SUM":
            return sum(values)  # type: ignore[arg-type]
        if call.name == "AVG":
            return sum(values) / len(values)  # type: ignore[arg-type]
        if call.name == "MIN":
            return min(values)  # type: ignore[type-var]
        if call.name == "MAX":
            return max(values)  # type: ignore[type-var]
        raise ExecutionError(f"unknown aggregate {call.name}")

    def _order_limit(
        self,
        select: ast.Select,
        result: tuple[list[str], list[tuple[object, ...]]],
        params: tuple[object, ...],
    ) -> tuple[list[str], list[tuple[object, ...]]]:
        columns, rows = result
        if select.order_by:
            positions = {name: i for i, name in enumerate(columns)}

            def sort_key(row: tuple[object, ...]) -> tuple:
                key = []
                for order in select.order_by:
                    value = self._order_value(order.expression, columns, row, params)
                    key.append(_SortValue(value, order.descending))
                return tuple(key)

            rows = sorted(rows, key=sort_key)
            del positions
        if select.offset is not None:
            offset = int(self._eval(select.offset, _Scope(), params))  # type: ignore[arg-type]
            rows = rows[offset:]
        if select.limit is not None:
            limit = int(self._eval(select.limit, _Scope(), params))  # type: ignore[arg-type]
            rows = rows[:limit]
        return columns, rows

    def _order_value(
        self,
        expr: ast.Expression,
        columns: list[str],
        row: tuple[object, ...],
        params: tuple[object, ...],
    ) -> object:
        """Evaluate an ORDER BY key against an already-projected row."""
        if isinstance(expr, ast.ColumnRef):
            name = expr.column.lower()
            for i, column in enumerate(columns):
                if column.lower() == name:
                    return row[i]
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            return row[expr.value - 1]  # ORDER BY ordinal
        raise ExecutionError(
            f"ORDER BY key {expr.unparse()!r} must name a projected column"
        )

    # -- scalar expression evaluation ----------------------------------------------

    def _eval(
        self, expr: ast.Expression, scope: _Scope, params: tuple[object, ...]
    ) -> object:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Placeholder):
            try:
                return params[expr.index]
            except IndexError:
                raise ExecutionError(
                    f"missing parameter {expr.index}: got {len(params)}"
                ) from None
        if isinstance(expr, ast.ColumnRef):
            return scope.resolve(expr)
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                left = self._eval(expr.left, scope, params)
                if not _truthy(left):
                    return False
                return _truthy(self._eval(expr.right, scope, params))
            if expr.op == "OR":
                left = self._eval(expr.left, scope, params)
                if _truthy(left):
                    return True
                return _truthy(self._eval(expr.right, scope, params))
            left = self._eval(expr.left, scope, params)
            right = self._eval(expr.right, scope, params)
            return _apply_binary(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, scope, params)
            return _apply_unary(expr.op, operand)
        if isinstance(expr, ast.IsNull):
            value = self._eval(expr.operand, scope, params)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, ast.InList):
            value = self._eval(expr.operand, scope, params)
            members = [self._eval(item, scope, params) for item in expr.items]
            if value is None:
                return None
            if value in members:
                return not expr.negated
            return None if None in members else expr.negated
        if isinstance(expr, ast.Between):
            value = self._eval(expr.operand, scope, params)
            low = self._eval(expr.low, scope, params)
            high = self._eval(expr.high, scope, params)
            if value is None or low is None or high is None:
                return False
            inside = low <= value <= high  # type: ignore[operator]
            return (not inside) if expr.negated else inside
        if isinstance(expr, ast.FunctionCall):
            raise ExecutionError(
                f"aggregate {expr.name} used outside aggregation context"
            )
        if isinstance(expr, ast.Star):
            raise ExecutionError("* is not a scalar expression")
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


class _SortValue:
    """Orderable wrapper handling None and DESC ordering."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortValue") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending  # NULLs first ascending, last descending
        if b is None:
            return self.descending
        if self.descending:
            return b < a  # type: ignore[operator]
        return a < b  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortValue) and self.value == other.value


def _truthy(value: object) -> bool:
    return bool(value)


def _apply_binary(op: str, left: object, right: object) -> object:
    if op in ("=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE"):
        if left is None or right is None:
            return False
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "LIKE":
            return _like(str(left), str(right))
        if op == "NOT LIKE":
            return not _like(str(left), str(right))
        try:
            if op == "<":
                return left < right  # type: ignore[operator]
            if op == "<=":
                return left <= right  # type: ignore[operator]
            if op == ">":
                return left > right  # type: ignore[operator]
            return left >= right  # type: ignore[operator]
        except TypeError as exc:
            raise ExecutionError(f"cannot compare {left!r} {op} {right!r}") from exc
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right  # type: ignore[operator]
        if op == "-":
            return left - right  # type: ignore[operator]
        if op == "*":
            return left * right  # type: ignore[operator]
        if op == "/":
            return left / right  # type: ignore[operator]
        if op == "%":
            return left % right  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"cannot apply {left!r} {op} {right!r}") from exc
    raise ExecutionError(f"unknown operator {op!r}")


def _apply_unary(op: str, operand: object) -> object:
    if op == "NOT":
        return None if operand is None else not _truthy(operand)
    if op == "-":
        if operand is None:
            return None
        return -operand  # type: ignore[operator]
    raise ExecutionError(f"unknown unary operator {op!r}")


def _like(text: str, pattern: str) -> bool:
    """SQL LIKE with % (any run) and _ (any char), case-insensitive."""
    import re

    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.fullmatch(regex, text, flags=re.IGNORECASE) is not None


def _default_name(expr: ast.Expression) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FunctionCall):
        inner = ", ".join(arg.unparse() for arg in expr.args)
        return f"{expr.name.lower()}({inner})"
    return expr.unparse()


def _dedupe(rows: list[tuple[object, ...]]) -> list[tuple[object, ...]]:
    seen: set[tuple[object, ...]] = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _dedupe_values(values: list[object]) -> list[object]:
    seen: set[object] = set()
    out = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _has_aggregate(select: ast.Select) -> bool:
    """True when any projection item contains an aggregate call."""

    def contains(expr: ast.Expression) -> bool:
        if isinstance(expr, ast.FunctionCall) and expr.name in (
            "COUNT",
            "SUM",
            "AVG",
            "MIN",
            "MAX",
        ):
            return True
        if isinstance(expr, ast.BinaryOp):
            return contains(expr.left) or contains(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return contains(expr.operand)
        return False

    return any(contains(item.expression) for item in select.items)


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


def _write_result(table: Table, matches: list, examined: int) -> UpdateResult:
    """Addition: an UPDATE/DELETE result carries its before-image."""
    return UpdateResult(
        affected=len(matches),
        rows_examined=examined,
        columns=table.schema.column_names,
        before=[row for _rowid, row in matches],
    )


def oracle_database(name: str = "oracle"):
    """A :class:`~repro.db.engine.Database` that interprets instead of
    compiling (everything but the executor is the production code)."""
    from repro.db.engine import Database

    database = Database(name)
    database._executor = Executor(database._tables)
    return database
