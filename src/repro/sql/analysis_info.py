"""Static read/write set extraction from statement ASTs.

The query analysis engine (Section 3.2) needs, for each statement
template, the set of tables and columns it touches:

- for a read: the tables read, the columns projected, and the columns
  referenced by the WHERE clause together with any equality bindings
  (``column = <placeholder i>`` or ``column = literal``);
- for a write: the table written, the columns updated (all columns for
  INSERT/DELETE), and the WHERE columns/bindings.

Equality bindings are the ingredient of invalidation policies 2 and 3:
knowing that a read selects rows with ``T.b = X`` and a write targets rows
with ``T.b = Y`` lets the engine prove non-intersection when ``X != Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sql import ast_nodes as ast

#: Function names that fold many rows into one value.
_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class EqualityBinding:
    """An equality constraint ``table.column = value-slot``.

    ``value_index`` points into the statement's value vector when the
    compared value is dynamic; ``literal`` carries a structural constant
    (rare after templateization, e.g. NULL comparisons are excluded).
    """

    table: str
    column: str
    value_index: int | None = None
    literal: object = None

    def resolve(self, values: tuple[object, ...]) -> object:
        """Return the concrete value of this binding for an instance."""
        if self.value_index is not None:
            return values[self.value_index]
        return self.literal


@dataclass(frozen=True)
class JoinFacts:
    """What a join read says about how its tables meet.

    Defined only for a SELECT over two or more tables whose WHERE and
    JOIN ON conditions are conjunctions of equalities, with inner or
    comma joins only and no subquery: then a row of the result is one
    row of each bound table satisfying every one of those equalities.

    ``equalities`` are the column-to-column equalities
    (``((t, a), (u, b))``, resolved like every other column, so either
    side may be the ``"?"`` spill); ``bindings`` the column-to-value
    ones of WHERE *and* ON (for an inner join the two are one
    conjunction); ``once`` the tables bound exactly once.
    """

    equalities: tuple[tuple[tuple[str, str], tuple[str, str]], ...]
    bindings: tuple[EqualityBinding, ...]
    once: frozenset[str]


@dataclass(frozen=True)
class StatementInfo:
    """Static analysis facts about one statement template.

    All table and column names are lower-cased.  ``columns_read`` is the
    union of projected and WHERE-referenced columns per table;
    ``columns_written`` holds SET/INSERT columns per table.  A ``*``
    projection is recorded as the special column name ``"*"``.
    """

    kind: str  # "select" | "insert" | "update" | "delete"
    tables: frozenset[str]
    columns_read: frozenset[tuple[str, str]]
    columns_written: frozenset[tuple[str, str]]
    where_columns: frozenset[tuple[str, str]]
    equality_bindings: tuple[EqualityBinding, ...]
    write_table: str | None = None
    # True when the WHERE clause is a pure conjunction of equality
    # predicates; only then can policies 2/3 prove non-intersection.
    where_is_conjunctive_equality: bool = True
    #: The columns that decide *which* rows a read returns and in what
    #: order: WHERE (subqueries included), JOIN ON, GROUP BY, HAVING,
    #: ORDER BY (an output alias also resolved to its expression) and
    #: aggregate arguments.  A write's are its WHERE columns.
    filter_columns: frozenset[tuple[str, str]] = frozenset()
    #: ``(table, output position)`` for each table whose primary key the
    #: read projects, sorted by table -- only for a read a row witness
    #: is defined for (see :func:`_key_positions`); empty otherwise, for
    #: every write, and without a catalog that knows primary keys.
    key_positions: tuple[tuple[str, int], ...] = ()
    #: How a join read's tables meet (:class:`JoinFacts`), or None for
    #: every other statement.
    joins: JoinFacts | None = None

    @property
    def is_read(self) -> bool:
        return self.kind == "select"

    @property
    def is_write(self) -> bool:
        return not self.is_read

    def binding_for(self, table: str, column: str) -> EqualityBinding | None:
        """Return the equality binding on ``table.column``, if any."""
        table = table.lower()
        column = column.lower()
        for binding in self.equality_bindings:
            if binding.table == table and binding.column == column:
                return binding
        return None


def extract_info(
    statement: ast.Statement, catalog: object | None = None
) -> StatementInfo:
    """Extract a :class:`StatementInfo` from a parsed statement.

    ``catalog`` is an optional schema oracle (duck-typed: anything with a
    ``columns_of(table) -> collection | None`` method, canonically
    :class:`repro.sql.lineage.Catalog`).  When present it resolves
    unqualified columns in multi-table reads to their unique owning
    table; when absent (the default) extraction behaves exactly as the
    catalog-less analysis always has, spilling ambiguous references to
    the conservative pseudo-table ``"?"``.
    """
    if isinstance(statement, ast.Select):
        return _extract_select(statement, catalog)
    if isinstance(statement, ast.Insert):
        return _extract_insert(statement)
    if isinstance(statement, ast.Update):
        return _extract_update(statement, catalog)
    if isinstance(statement, ast.Delete):
        return _extract_delete(statement, catalog)
    raise TypeError(f"cannot analyse statement of type {type(statement).__name__}")


# ---------------------------------------------------------------------------
# Extraction per statement kind
# ---------------------------------------------------------------------------


def _extract_select(
    select: ast.Select, catalog: object | None = None
) -> StatementInfo:
    bindings = _alias_map(select)
    tables = frozenset(table.name.lower() for table in select.tables) | frozenset(
        join.table.name.lower() for join in select.joins
    )
    read: set[tuple[str, str]] = set()
    for item in select.items:
        read |= _columns_in(item.expression, bindings, tables, catalog)
    for join in select.joins:
        read |= _columns_in(join.condition, bindings, tables, catalog)
    for expr in select.group_by:
        read |= _columns_in(expr, bindings, tables, catalog)
    for order in select.order_by:
        read |= _columns_in(order.expression, bindings, tables, catalog)
    if select.having is not None:
        read |= _columns_in(select.having, bindings, tables, catalog)

    where_cols: set[tuple[str, str]] = set()
    eq_bindings: list[EqualityBinding] = []
    conjunctive = True
    if select.where is not None:
        where_cols = _columns_in(select.where, bindings, tables, catalog)
        conjunctive = _collect_equalities(
            select.where, bindings, tables, eq_bindings, catalog
        )
        read |= where_cols

    # Fold IN (SELECT ...) subqueries into the outer read footprint: the
    # outer result depends on every table and column the subquery reads,
    # so writes there must be able to find this template as a candidate.
    sub_tables: set[str] = set()
    subqueries = _subquery_selects(select)
    for sub in subqueries:
        sub_info = _extract_select(sub, catalog)
        sub_tables |= sub_info.tables
        read |= sub_info.columns_read
        where_cols |= sub_info.columns_read

    filters = set(where_cols)
    for join in select.joins:
        filters |= _columns_in(join.condition, bindings, tables, catalog)
    for expr in select.group_by:
        filters |= _columns_in(expr, bindings, tables, catalog)
    if select.having is not None:
        filters |= _columns_in(select.having, bindings, tables, catalog)
    aliases = {
        item.alias.lower(): item.expression for item in select.items if item.alias
    }
    for order in select.order_by:
        expr = order.expression
        filters |= _columns_in(expr, bindings, tables, catalog)
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            aliased = aliases.get(expr.column.lower())
            if aliased is not None:
                filters |= _columns_in(aliased, bindings, tables, catalog)
    aggregates = [
        call for item in select.items for call in _aggregate_calls(item.expression)
    ]
    for call in aggregates:
        filters |= _columns_in(call, bindings, tables, catalog)

    key_positions: tuple[tuple[str, int], ...] = ()
    if not (subqueries or aggregates or select.group_by or select.having):
        key_positions = _key_positions(select, bindings, tables, catalog, read)
    joins = None
    if conjunctive and not subqueries:
        joins = _join_facts(select, bindings, tables, catalog)
    return StatementInfo(
        kind="select",
        tables=tables | frozenset(sub_tables),
        columns_read=frozenset(read),
        columns_written=frozenset(),
        where_columns=frozenset(where_cols),
        equality_bindings=tuple(eq_bindings),
        where_is_conjunctive_equality=conjunctive,
        filter_columns=frozenset(filters),
        key_positions=key_positions,
        joins=joins,
    )


def _join_facts(
    select: ast.Select,
    bindings: dict[str, str],
    tables: frozenset[str],
    catalog: object | None,
) -> JoinFacts | None:
    """:class:`JoinFacts` for a join read, or None (see there).  The
    caller has checked that the WHERE is a conjunction of equalities
    and that there is no subquery."""
    names = [table.name.lower() for table in select.tables] + [
        join.table.name.lower() for join in select.joins
    ]
    if len(names) < 2 or any(join.kind != "INNER" for join in select.joins):
        return None
    conditions = [join.condition for join in select.joins]
    if select.where is not None:
        conditions.append(select.where)
    equalities: list = []
    found: list[EqualityBinding] = []
    for condition in conditions:
        if not _collect_equalities(condition, bindings, tables, found, catalog):
            return None
        _column_equalities(condition, bindings, tables, catalog, equalities)
    return JoinFacts(
        equalities=tuple(equalities),
        bindings=tuple(found),
        once=frozenset(name for name in names if names.count(name) == 1),
    )


def _column_equalities(
    expr: ast.Expression,
    bindings: dict[str, str],
    tables: frozenset[str],
    catalog: object | None,
    out: list,
) -> None:
    """Append the ``column = column`` leaves of a conjunction to ``out``
    as resolved ``((table, column), (table, column))`` pairs."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        _column_equalities(expr.left, bindings, tables, catalog, out)
        _column_equalities(expr.right, bindings, tables, catalog, out)
    elif (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ast.ColumnRef)
        and isinstance(expr.right, ast.ColumnRef)
    ):
        out.append(
            (
                _resolve(expr.left, bindings, tables, catalog),
                _resolve(expr.right, bindings, tables, catalog),
            )
        )


def _key_positions(
    select: ast.Select,
    bindings: dict[str, str],
    tables: frozenset[str],
    catalog: object | None,
    read: set[tuple[str, str]],
) -> tuple[tuple[str, int], ...]:
    """Where the read projects each table's primary key, if it may be
    given a row witness.

    The caller has excluded aggregates, GROUP BY, HAVING and subqueries.
    Beyond that: inner or comma joins only, each table bound once, no
    ``*`` anywhere (it hides the output positions) and no column the
    catalog could not attribute to one table.  For such a read an
    UPDATE of table T that assigns no filter column of T and not its
    key can change the result only through rows of T the result
    showed: the rows it returns, and their order, are decided by filter
    columns alone.
    """
    primary_key_of = getattr(catalog, "primary_key_of", None)
    if primary_key_of is None:
        return ()
    if any(join.kind != "INNER" for join in select.joins):
        return ()
    bound = len(select.tables) + len(select.joins)
    if len(bindings) != bound or len(tables) != bound:
        return ()  # a table (or binding name) used twice
    if any(table == "?" or column == "*" for table, column in read):
        return ()
    positions: dict[str, int] = {}
    for position, item in enumerate(select.items):
        expr = item.expression
        if not isinstance(expr, ast.ColumnRef):
            continue
        table, column = _resolve(expr, bindings, tables, catalog)
        if table not in positions and primary_key_of(table) == column:
            positions[table] = position
    return tuple(sorted(positions.items()))


def _extract_insert(insert: ast.Insert) -> StatementInfo:
    table = insert.table.lower()
    written = frozenset((table, column.lower()) for column in insert.columns)
    eq_bindings: list[EqualityBinding] = []
    # An INSERT "binds" the inserted values to their columns: a read whose
    # selection requires column=X only gains a row if the insert writes X.
    for column, value in zip(insert.columns, insert.values):
        if isinstance(value, ast.Placeholder):
            eq_bindings.append(
                EqualityBinding(table=table, column=column.lower(), value_index=value.index)
            )
        elif isinstance(value, ast.Literal):
            eq_bindings.append(
                EqualityBinding(table=table, column=column.lower(), literal=value.value)
            )
    return StatementInfo(
        kind="insert",
        tables=frozenset({table}),
        columns_read=frozenset(),
        columns_written=written,
        where_columns=frozenset(),
        equality_bindings=tuple(eq_bindings),
        write_table=table,
    )


def _extract_update(
    update: ast.Update, catalog: object | None = None
) -> StatementInfo:
    table = update.table.lower()
    tables = frozenset({table})
    bindings = {table: table}
    written = frozenset((table, a.column.lower()) for a in update.assignments)
    where_cols: set[tuple[str, str]] = set()
    eq_bindings: list[EqualityBinding] = []
    conjunctive = True
    if update.where is not None:
        where_cols = _columns_in(update.where, bindings, tables, catalog)
        conjunctive = _collect_equalities(
            update.where, bindings, tables, eq_bindings, catalog
        )
    # SET column = value also constrains the post-state of those columns.
    for assignment in update.assignments:
        if isinstance(assignment.value, ast.Placeholder):
            eq_bindings.append(
                EqualityBinding(
                    table=table,
                    column=assignment.column.lower(),
                    value_index=assignment.value.index,
                )
            )
    return StatementInfo(
        kind="update",
        tables=tables,
        columns_read=frozenset(where_cols),
        columns_written=written,
        where_columns=frozenset(where_cols),
        equality_bindings=tuple(eq_bindings),
        write_table=table,
        where_is_conjunctive_equality=conjunctive,
        filter_columns=frozenset(where_cols),
    )


def _extract_delete(
    delete: ast.Delete, catalog: object | None = None
) -> StatementInfo:
    table = delete.table.lower()
    tables = frozenset({table})
    bindings = {table: table}
    where_cols: set[tuple[str, str]] = set()
    eq_bindings: list[EqualityBinding] = []
    conjunctive = True
    if delete.where is not None:
        where_cols = _columns_in(delete.where, bindings, tables, catalog)
        conjunctive = _collect_equalities(
            delete.where, bindings, tables, eq_bindings, catalog
        )
    # A DELETE touches every column of the table: any read on the table
    # may lose rows.
    written = frozenset({(table, "*")})
    return StatementInfo(
        kind="delete",
        tables=tables,
        columns_read=frozenset(where_cols),
        columns_written=written,
        where_columns=frozenset(where_cols),
        equality_bindings=tuple(eq_bindings),
        write_table=table,
        where_is_conjunctive_equality=conjunctive,
        filter_columns=frozenset(where_cols),
    )


# ---------------------------------------------------------------------------
# Expression walking
# ---------------------------------------------------------------------------


def _alias_map(select: ast.Select) -> dict[str, str]:
    """Map binding names (aliases or table names) to real table names."""
    mapping: dict[str, str] = {}
    for table in select.tables:
        mapping[table.binding] = table.name.lower()
    for join in select.joins:
        mapping[join.table.binding] = join.table.name.lower()
    return mapping


def _resolve(
    ref: ast.ColumnRef,
    bindings: dict[str, str],
    tables: frozenset[str],
    catalog: object | None = None,
) -> tuple[str, str]:
    """Resolve a column reference to a (table, column) pair.

    Unqualified references in single-table statements resolve to that
    table.  In multi-table statements a ``catalog`` (schema oracle) can
    prove a unique owning table; when it cannot -- no catalog, a table
    of unknown schema, or the column lives in several read tables --
    the reference spills to the pseudo-table ``"?"``, which the
    analysis treats conservatively (matches any table).
    """
    column = ref.column.lower()
    if ref.table is not None:
        return bindings.get(ref.table.lower(), ref.table.lower()), column
    if len(tables) == 1:
        return next(iter(tables)), column
    if catalog is not None:
        owners = []
        unknown_schema = False
        for table in sorted(tables):
            columns = catalog.columns_of(table)
            if columns is None:
                unknown_schema = True
            elif column in columns:
                owners.append(table)
        if not unknown_schema and len(owners) == 1:
            return owners[0], column
    return "?", column


def _columns_in(
    expr: ast.Expression,
    bindings: dict[str, str],
    tables: frozenset[str],
    catalog: object | None = None,
) -> set[tuple[str, str]]:
    """Collect every (table, column) referenced by ``expr``.

    ``IN (SELECT ...)`` operands are walked but the subquery body is
    not: subquery footprints are folded in by :func:`_extract_select`,
    which resolves them against the *subquery's* own tables.
    """
    found: set[tuple[str, str]] = set()

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.ColumnRef):
            found.add(_resolve(node, bindings, tables, catalog))
        elif isinstance(node, ast.Star):
            if node.table is not None:
                found.add((bindings.get(node.table.lower(), node.table.lower()), "*"))
            else:
                for table in tables:
                    found.add((table, "*"))
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.InSubquery):
            walk(node.operand)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return found


def _subquery_selects(select: ast.Select) -> list[ast.Select]:
    """Collect the immediate ``IN (SELECT ...)`` subqueries of ``select``.

    Only the directly nested selects are returned; deeper nesting is
    handled by the recursive :func:`_extract_select` call on each.
    """
    found: list[ast.Select] = []

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.InSubquery):
            walk(node.operand)
            found.append(node.select)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)

    for item in select.items:
        walk(item.expression)
    for join in select.joins:
        walk(join.condition)
    if select.where is not None:
        walk(select.where)
    for expr in select.group_by:
        walk(expr)
    if select.having is not None:
        walk(select.having)
    for order in select.order_by:
        walk(order.expression)
    return found


def _aggregate_calls(expr: ast.Expression) -> list[ast.FunctionCall]:
    """The aggregate calls in ``expr`` (subquery bodies not entered)."""
    found: list[ast.FunctionCall] = []

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.FunctionCall):
            if node.name.upper() in _AGGREGATES:
                found.append(node)
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ast.UnaryOp, ast.IsNull)):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)

    walk(expr)
    return found


def _collect_equalities(
    expr: ast.Expression,
    bindings: dict[str, str],
    tables: frozenset[str],
    out: list[EqualityBinding],
    catalog: object | None = None,
) -> bool:
    """Collect ``column = value`` bindings from a conjunctive WHERE clause.

    Returns True when ``expr`` is a pure conjunction whose leaves are
    either equality predicates against a value slot or column-to-column
    equalities (join conditions, which are ignored but do not break
    conjunctivity).  OR/NOT/inequality leaves return False, signalling
    the engine to fall back to conservative table/column intersection.
    """
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        left_ok = _collect_equalities(expr.left, bindings, tables, out, catalog)
        right_ok = _collect_equalities(expr.right, bindings, tables, out, catalog)
        return left_ok and right_ok
    if isinstance(expr, ast.BinaryOp) and expr.op == "=":
        column_side = None
        value_side = None
        if isinstance(expr.left, ast.ColumnRef):
            column_side, value_side = expr.left, expr.right
        elif isinstance(expr.right, ast.ColumnRef):
            column_side, value_side = expr.right, expr.left
        if column_side is None:
            return False
        if isinstance(value_side, ast.ColumnRef):
            return True  # join predicate: no binding, still conjunctive
        table, column = _resolve(column_side, bindings, tables, catalog)
        if isinstance(value_side, ast.Placeholder):
            out.append(
                EqualityBinding(table=table, column=column, value_index=value_side.index)
            )
            return True
        if isinstance(value_side, ast.Literal):
            out.append(
                EqualityBinding(table=table, column=column, literal=value_side.value)
            )
            return True
        return False
    return False
