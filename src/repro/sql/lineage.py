"""Column-level lineage for read templates.

The invalidation engine's column dimension asks one question per
(read template, write) pair: *can this write's columns affect anything
the read depends on?*  Answering it at column granularity requires a
conservative *read set* for each template -- every base-table column
the cached result can observe, through projections, join and selection
predicates, grouping, ordering, aggregates and ``IN (SELECT ...)``
subqueries.  This module computes that set deterministically from the
template AST, optionally sharpened by a :class:`Catalog` describing the
base-table schemas.

Soundness contract (see ``docs/lineage.md`` for the full argument):

- **Never narrow without proof.**  A ``SELECT *`` projection with no
  catalog stays the wildcard ``(table, "*")`` (matches every column);
  an unqualified column the catalog cannot attribute to a unique table
  stays the spill ``("?", column)`` (matches the column on any table).
- **Unknown construct => widen.**  Any extraction failure degrades to
  "reads every column of every referenced table", never to a smaller
  set.
- **Catalog-free == legacy.**  With ``catalog=None`` the read set is
  exactly ``extract_info(statement).columns_read`` -- the facts the
  engine has always used -- so enabling lineage without a catalog
  changes no invalidation decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql import ast_nodes as ast
from repro.sql.analysis_info import _alias_map, _columns_in, extract_info


class Catalog:
    """A schema oracle: which columns each base table has, and which of
    them is the table's primary key.

    Table and column names are stored lower-cased.  ``columns_of``
    returns ``None`` for a table the catalog does not know, which every
    consumer must treat as "could be anything"; ``primary_key_of``
    returns ``None`` for a table without a known key.
    """

    def __init__(
        self,
        schemas: dict[str, tuple[str, ...]] | None = None,
        primary_keys: dict[str, str] | None = None,
    ) -> None:
        self._schemas: dict[str, frozenset[str]] = {}
        for table, columns in (schemas or {}).items():
            self._schemas[table.lower()] = frozenset(c.lower() for c in columns)
        self._keys: dict[str, str] = {
            table.lower(): key.lower() for table, key in (primary_keys or {}).items()
        }

    @classmethod
    def from_database(cls, database) -> "Catalog":
        """Build a catalog from a live :class:`~repro.db.engine.Database`."""
        schemas = {}
        keys = {}
        for name in database.table_names:
            schema = database.table(name).schema
            schemas[name] = tuple(schema.column_names)
            if schema.primary_key is not None:
                keys[name] = schema.primary_key
        return cls(schemas, keys)

    @property
    def tables(self) -> frozenset[str]:
        return frozenset(self._schemas)

    def columns_of(self, table: str) -> frozenset[str] | None:
        return self._schemas.get(table.lower())

    def primary_key_of(self, table: str) -> str | None:
        return self._keys.get(table.lower())

    def merge(self, other: "Catalog") -> "Catalog":
        """Union of two catalogs; ``other`` wins on a table name clash."""
        merged = Catalog()
        merged._schemas = {**self._schemas, **other._schemas}
        merged._keys = {
            table: key
            for table, key in self._keys.items()
            if table not in other._schemas
        }
        merged._keys.update(other._keys)
        return merged

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self._schemas)


@dataclass(frozen=True)
class OutputLineage:
    """One output column of a read template and its base-column sources.

    ``sources`` uses the same conventions as ``StatementInfo`` column
    sets: ``(table, "*")`` is "every column of *table*" and
    ``("?", column)`` is "*column* on some referenced table".
    """

    output: str
    sources: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class LineageInfo:
    """Column lineage of one read template.

    ``read_set`` is the union of every output's sources plus the
    selection-dependency columns -- the single set the runtime's
    column-disjointness prune consults.  ``exact`` is True only when
    the set contains no wildcard/spill entries, i.e. it enumerates
    real base columns; only exact lineage may justify static claims
    such as RC04 indexability.
    """

    outputs: tuple[OutputLineage, ...]
    selection: frozenset[tuple[str, str]]
    read_set: frozenset[tuple[str, str]]
    tables: frozenset[str]
    exact: bool = field(default=False)

    def reads_column(self, table: str, column: str) -> bool:
        """Conservatively: may this template observe ``table.column``?"""
        table = table.lower()
        column = column.lower()
        for read_table, read_column in self.read_set:
            if read_table != table and read_table != "?":
                continue
            if read_column == "*" or read_column == column:
                return True
        return False


def _expand(
    columns: frozenset[tuple[str, str]], catalog: Catalog | None
) -> frozenset[tuple[str, str]]:
    """Expand ``(table, "*")`` wildcards through the catalog.

    A wildcard on a table the catalog knows becomes that table's full
    column list (a *narrowing with proof*: the table has no other
    columns).  Unknown tables keep their wildcard, and ``("?", col)``
    spills pass through untouched -- resolution happened earlier, in
    ``_resolve``, where the statement's table list is in scope.
    """
    if catalog is None:
        return columns
    expanded: set[tuple[str, str]] = set()
    for table, column in columns:
        if column == "*" and table != "?":
            known = catalog.columns_of(table)
            if known is not None:
                expanded |= {(table, real) for real in sorted(known)}
                continue
        expanded.add((table, column))
    return frozenset(expanded)


def _is_exact(columns: frozenset[tuple[str, str]]) -> bool:
    return all(t != "?" and c != "*" for t, c in columns)


def _output_label(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias.lower()
    expr = item.expression
    if isinstance(expr, ast.ColumnRef):
        return expr.column.lower()
    return expr.unparse()


def compute_lineage(
    statement: ast.Statement, catalog: Catalog | None = None
) -> LineageInfo:
    """Compute :class:`LineageInfo` for a read statement.

    Writes have no output lineage; for uniformity they yield an empty
    ``LineageInfo`` (their invalidation footprint is ``columns_written``,
    not a read set).  Any unexpected construct widens to "all columns
    of all referenced tables" rather than failing.
    """
    try:
        return _compute(statement, catalog)
    except Exception:
        # Widen, never narrow: an extraction surprise must not let a
        # write slip past the prune.
        try:
            tables = extract_info(statement).tables
        except Exception:
            return LineageInfo(
                outputs=(),
                selection=frozenset(),
                read_set=frozenset({("?", "*")}),
                tables=frozenset(),
                exact=False,
            )
        widened = frozenset((table, "*") for table in tables)
        return LineageInfo(
            outputs=(),
            selection=widened,
            read_set=widened,
            tables=tables,
            exact=False,
        )


def _compute(statement: ast.Statement, catalog: Catalog | None) -> LineageInfo:
    info = extract_info(statement, catalog)
    if not isinstance(statement, ast.Select):
        # Writes have no output lineage; their "read set" is what the
        # WHERE clause observes (== columns_read), preserving the
        # catalog-free invariant for every statement kind.
        read_set = _expand(info.columns_read, catalog)
        return LineageInfo(
            outputs=(),
            selection=_expand(info.where_columns, catalog),
            read_set=read_set,
            tables=info.tables,
            exact=_is_exact(read_set),
        )

    bindings = _alias_map(statement)
    local_tables = frozenset(t.name.lower() for t in statement.tables) | frozenset(
        j.table.name.lower() for j in statement.joins
    )
    outputs = tuple(
        OutputLineage(
            output=_output_label(item),
            sources=_expand(
                frozenset(
                    _columns_in(item.expression, bindings, local_tables, catalog)
                ),
                catalog,
            ),
        )
        for item in statement.items
    )

    # Everything that determines *which* rows (and in what order) the
    # result contains: joins, WHERE (incl. folded subquery reads, which
    # extract_info places in where_columns), GROUP BY/HAVING, ORDER BY.
    selection: set[tuple[str, str]] = set(info.where_columns)
    for join in statement.joins:
        selection |= _columns_in(join.condition, bindings, local_tables, catalog)
    for expr in statement.group_by:
        selection |= _columns_in(expr, bindings, local_tables, catalog)
    if statement.having is not None:
        selection |= _columns_in(statement.having, bindings, local_tables, catalog)
    for order in statement.order_by:
        selection |= _columns_in(order.expression, bindings, local_tables, catalog)

    read_set = _expand(info.columns_read, catalog)
    return LineageInfo(
        outputs=outputs,
        selection=_expand(frozenset(selection), catalog),
        read_set=read_set,
        tables=info.tables,
        exact=_is_exact(read_set),
    )
