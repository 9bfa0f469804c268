"""Differential correctness harness: indexed vs. brute-force invalidation.

The indexed invalidation engine is only admissible if it is *invisible*:
for any population of registered read instances and any write batch, the
set of doomed page keys (and the single-flight ``intersects_any``
verdict) must equal the paper's brute-force protocol exactly.  This
module generates randomized RUBiS/TPC-W-flavoured workloads -- read
templates with conjunctive, disjunctive, missing and multi-column WHERE
clauses; INSERT/UPDATE/DELETE writes with complete, incomplete and
missing pre-images -- and runs both protocols side by side over many
rounds, invalidating and re-registering pages between rounds so the
population churns.

Any divergence is a bug in the indexes or pruning plans, never
acceptable drift: pruning is supposed to skip only work whose outcome
is already decided.  ``python -m repro differential`` runs this from
the shell; the property-style tests in
``tests/test_invalidation_differential.py`` run it across seeds and
policies in CI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.cache.analysis import (
    InvalidationPolicy,
    QueryAnalysisEngine,
    partners_excuse,
)
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

#: Auction/bookstore flavoured schema the random workloads draw from.
SCHEMA: dict[str, list[str]] = {
    "users": ["id", "name", "rating", "region"],
    "items": ["id", "seller", "category", "price", "qty"],
    "bids": ["item_id", "user_id", "amount"],
    "comments": ["item_id", "from_user", "rating"],
    "orders": ["id", "customer_id", "status", "total"],
    "order_line": ["order_id", "item_id", "qty"],
}

#: Extra columns per table that the column-mix *read* generator never
#: projects or filters on (bookkeeping fields: audit stamps, counters).
#: Column-mix writes target them frequently, so a correct lineage prune
#: skips those (write, template) pairs wholesale -- except against
#: ``SELECT *`` templates, whose catalog-expanded read set legitimately
#: covers them.
NEVER_READ_COLUMNS: dict[str, list[str]] = {
    "users": ["last_login", "audit_stamp"],
    "items": ["view_count", "audit_stamp"],
    "bids": ["placed_at"],
    "comments": ["flag_count"],
    "orders": ["ship_addr_id", "audit_stamp"],
    "order_line": ["picked_at"],
}

#: The column-mix schema: read-visible columns plus the never-read tail.
COLUMN_SCHEMA: dict[str, list[str]] = {
    table: SCHEMA[table] + NEVER_READ_COLUMNS[table] for table in SCHEMA
}


def column_catalog() -> Catalog:
    """The schema catalog both differential sides share in column mode."""
    return Catalog({t: tuple(cols) for t, cols in COLUMN_SCHEMA.items()})


#: Small value domain so reads and writes collide often enough to
#: exercise both the "prune" and the "must test" paths.
VALUE_DOMAIN = range(6)


@dataclass
class DifferentialResult:
    """Outcome of one indexed-vs-brute differential run."""

    seed: int
    rounds: int
    policy: str
    writes_tested: int = 0
    pages_doomed: int = 0
    intersects_checks: int = 0
    #: Index effectiveness on the indexed side (for reporting and to
    #: prove the run exercised pruning at all, not just full scans).
    templates_skipped: int = 0
    instances_skipped: int = 0
    pair_analyses_indexed: int = 0
    pair_analyses_brute: int = 0
    intersection_tests_indexed: int = 0
    intersection_tests_brute: int = 0
    #: Candidate templates skipped by the column-lineage rule on the
    #: indexed side; zero would make a column-mix run vacuous.
    templates_skipped_by_lineage: int = 0
    column_plans_built: int = 0
    #: Never-read probes (column mix only): synthetic UPDATEs to a
    #: (table, column) no registered template's lineage read set covers.
    #: Each must doom zero pages on both sides; ``never_read_doomed``
    #: counts violations (any non-zero value is a mismatch).
    never_read_probes: int = 0
    never_read_doomed: int = 0
    #: Instances the row witness excused, per side (``ROW_WITNESS``
    #: only).  They need not be equal: each side stops testing a page
    #: at its first doom, in its own template order.
    witness_skips_indexed: int = 0
    witness_skips_brute: int = 0
    #: Instances partner probes excused, per side (partner mix; same
    #: caveat as the witness skips).
    partner_skips_indexed: int = 0
    partner_skips_brute: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def random_read(rng: random.Random) -> QueryInstance:
    """Default-mix reads: single-table, equality/range/disjunctive WHEREs."""
    table = rng.choice(sorted(SCHEMA))
    columns = SCHEMA[table]
    projection = rng.choice(columns + ["*"])
    roll = rng.random()
    if roll < 0.35:
        column = rng.choice(columns)
        sql = f"SELECT {projection} FROM {table} WHERE {column} = ?"
        params: tuple = (rng.choice(VALUE_DOMAIN),)
    elif roll < 0.60:
        first, second = rng.sample(columns, 2) if len(columns) > 1 else (
            columns[0], columns[0]
        )
        sql = (
            f"SELECT {projection} FROM {table} "
            f"WHERE {first} = ? AND {second} = ?"
        )
        params = (rng.choice(VALUE_DOMAIN), rng.choice(VALUE_DOMAIN))
    elif roll < 0.75:
        # Disjunctive: non-conjunctive reads must never be pruned.
        first, second = rng.choice(columns), rng.choice(columns)
        sql = (
            f"SELECT {projection} FROM {table} "
            f"WHERE {first} = ? OR {second} = ?"
        )
        params = (rng.choice(VALUE_DOMAIN), rng.choice(VALUE_DOMAIN))
    elif roll < 0.85:
        column = rng.choice(columns)
        sql = f"SELECT {projection} FROM {table} WHERE {column} > ?"
        params = (rng.choice(VALUE_DOMAIN),)
    else:
        sql = f"SELECT {projection} FROM {table}"
        params = ()
    template, values = templateize(sql, params)
    return QueryInstance(template, values)


def _random_pre_image(
    rng: random.Random, table: str, schema: dict[str, list[str]] = SCHEMA
) -> tuple[dict[str, object], ...] | None:
    """None / complete / incomplete pre-images, all of which must agree
    with the brute protocol's conservative handling."""
    roll = rng.random()
    if roll < 0.30:
        return None
    columns = schema[table]
    rows = []
    for _ in range(rng.randrange(0, 4)):
        row = {column: rng.choice(VALUE_DOMAIN) for column in columns}
        if roll >= 0.80 and len(row) > 1:
            del row[rng.choice(sorted(row))]  # incomplete capture
        rows.append(row)
    return tuple(rows)


def _stored_row(
    columns: list[str], chosen: list[str], params: tuple
) -> tuple[dict[str, object], ...]:
    """An INSERT's after-image in these symbolic schemas: the inserted
    values, NULL wherever a column was omitted (no generated keys)."""
    inserted = dict(zip(chosen, params))
    return ({column: inserted.get(column) for column in columns},)


def random_write(rng: random.Random) -> QueryInstance:
    """Default-mix writes: INSERT/UPDATE/DELETE with random pre-images."""
    table = rng.choice(sorted(SCHEMA))
    columns = SCHEMA[table]
    kind = rng.random()
    if kind < 0.30:
        chosen = rng.sample(columns, rng.randrange(1, len(columns) + 1))
        placeholders = ", ".join("?" for _ in chosen)
        sql = (
            f"INSERT INTO {table} ({', '.join(chosen)}) "
            f"VALUES ({placeholders})"
        )
        params = tuple(rng.choice(VALUE_DOMAIN) for _ in chosen)
        template, values = templateize(sql, params)
        return QueryInstance(template, values, _stored_row(columns, chosen, params))
    if kind < 0.70:
        n_set = rng.randrange(1, min(3, len(columns)) + 1)
        set_columns = rng.sample(columns, n_set)
        set_sql = ", ".join(f"{column} = ?" for column in set_columns)
        params_list = [rng.choice(VALUE_DOMAIN) for _ in set_columns]
        where_roll = rng.random()
        if where_roll < 0.6:
            where_column = rng.choice(columns)
            where_sql = f" WHERE {where_column} = ?"
            params_list.append(rng.choice(VALUE_DOMAIN))
        elif where_roll < 0.8:
            first, second = rng.choice(columns), rng.choice(columns)
            where_sql = f" WHERE {first} = ? OR {second} = ?"
            params_list.extend(
                (rng.choice(VALUE_DOMAIN), rng.choice(VALUE_DOMAIN))
            )
        else:
            where_sql = ""
        sql = f"UPDATE {table} SET {set_sql}{where_sql}"
        template, values = templateize(sql, tuple(params_list))
        return QueryInstance(template, values, _random_pre_image(rng, table))
    if rng.random() < 0.8:
        column = rng.choice(columns)
        sql = f"DELETE FROM {table} WHERE {column} = ?"
        params = (rng.choice(VALUE_DOMAIN),)
    else:
        sql = f"DELETE FROM {table}"
        params = ()
    template, values = templateize(sql, params)
    return QueryInstance(template, values, _random_pre_image(rng, table))


#: Join pairs the column-mix read generator draws from, with their
#: equi-join condition (qualified, so only the projection/filter side
#: exercises ambiguous-column resolution).
_JOIN_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("items", "bids", "items.id = bids.item_id"),
    ("items", "order_line", "items.id = order_line.item_id"),
    ("users", "bids", "users.id = bids.user_id"),
    ("orders", "order_line", "orders.id = order_line.order_id"),
    ("users", "comments", "users.id = comments.from_user"),
)

#: (outer table, outer column, inner table, inner column) shapes for
#: ``IN (SELECT ...)`` reads.
_SUBQUERY_SHAPES: tuple[tuple[str, str, str, str], ...] = (
    ("users", "id", "bids", "user_id"),
    ("items", "id", "order_line", "item_id"),
    ("items", "id", "bids", "item_id"),
    ("orders", "id", "order_line", "order_id"),
)


def _random_column_read(rng: random.Random) -> QueryInstance:
    """Column-mix reads: projected subsets, ``SELECT *``, joins with
    ambiguous/unique unqualified columns, aggregates, IN-subqueries.

    Projections and filters only ever touch :data:`SCHEMA` columns, so
    the :data:`NEVER_READ_COLUMNS` tail stays write-only -- except via
    ``SELECT *``, whose catalog expansion legitimately reads it.
    """
    roll = rng.random()
    if roll < 0.18:
        table = rng.choice(sorted(SCHEMA))
        column = rng.choice(SCHEMA[table])
        if rng.random() < 0.5:
            sql = f"SELECT * FROM {table} WHERE {column} = ?"
            params: tuple = (rng.choice(VALUE_DOMAIN),)
        else:
            sql = f"SELECT * FROM {table}"
            params = ()
    elif roll < 0.45:
        table = rng.choice(sorted(SCHEMA))
        columns = SCHEMA[table]
        projected = rng.sample(columns, rng.randrange(1, len(columns)))
        where = rng.choice(columns)
        sql = (
            f"SELECT {', '.join(projected)} FROM {table} "
            f"WHERE {where} = ?"
        )
        params = (rng.choice(VALUE_DOMAIN),)
    elif roll < 0.65:
        left, right, condition = rng.choice(_JOIN_PAIRS)
        pool = sorted(set(SCHEMA[left]) | set(SCHEMA[right]))
        projected = rng.choice(pool)
        if rng.random() < 0.5:
            # Qualify explicitly; otherwise leave the reference for the
            # schema-aware resolver (unique owner or "?" spill).
            owner = left if projected in SCHEMA[left] else right
            projected = f"{owner}.{projected}"
        filter_table = rng.choice((left, right))
        filter_column = rng.choice(SCHEMA[filter_table])
        sql = (
            f"SELECT {projected} FROM {left}, {right} "
            f"WHERE {condition} AND {filter_table}.{filter_column} = ?"
        )
        params = (rng.choice(VALUE_DOMAIN),)
    elif roll < 0.85:
        table = rng.choice(sorted(SCHEMA))
        columns = SCHEMA[table]
        key = rng.choice(columns)
        if rng.random() < 0.5:
            sql = f"SELECT COUNT(*) FROM {table} WHERE {key} = ?"
            params = (rng.choice(VALUE_DOMAIN),)
        else:
            target = rng.choice(columns)
            sql = (
                f"SELECT {key}, MAX({target}) FROM {table} "
                f"GROUP BY {key} ORDER BY {key}"
            )
            params = ()
    else:
        outer, outer_col, inner, inner_col = rng.choice(_SUBQUERY_SHAPES)
        projected = rng.choice(SCHEMA[outer])
        inner_filter = rng.choice(SCHEMA[inner])
        negated = "NOT IN" if rng.random() < 0.25 else "IN"
        sql = (
            f"SELECT {projected} FROM {outer} WHERE {outer_col} {negated} "
            f"(SELECT {inner_col} FROM {inner} WHERE {inner_filter} = ?)"
        )
        params = (rng.choice(VALUE_DOMAIN),)
    template, values = templateize(sql, params)
    return QueryInstance(template, values)


def _random_column_write(rng: random.Random) -> QueryInstance:
    """Column-mix writes over the *full* schema, biased towards UPDATEs
    that touch the never-read tail (the lineage prune's bread and
    butter) but with plenty of read-column and mixed SET lists."""
    table = rng.choice(sorted(COLUMN_SCHEMA))
    columns = COLUMN_SCHEMA[table]
    never_read = NEVER_READ_COLUMNS[table]
    kind = rng.random()
    if kind < 0.20:
        chosen = rng.sample(columns, rng.randrange(1, len(columns) + 1))
        placeholders = ", ".join("?" for _ in chosen)
        sql = (
            f"INSERT INTO {table} ({', '.join(chosen)}) "
            f"VALUES ({placeholders})"
        )
        params = tuple(rng.choice(VALUE_DOMAIN) for _ in chosen)
        template, values = templateize(sql, params)
        return QueryInstance(template, values, _stored_row(columns, chosen, params))
    if kind < 0.85:
        set_roll = rng.random()
        if set_roll < 0.45:
            # Only never-read columns: prunable against everything but
            # the SELECT * templates.
            set_columns = rng.sample(
                never_read, rng.randrange(1, len(never_read) + 1)
            )
        elif set_roll < 0.75:
            set_columns = rng.sample(
                SCHEMA[table], rng.randrange(1, min(3, len(SCHEMA[table])) + 1)
            )
        else:
            set_columns = rng.sample(
                columns, rng.randrange(1, min(4, len(columns)) + 1)
            )
        set_sql = ", ".join(f"{column} = ?" for column in set_columns)
        params_list = [rng.choice(VALUE_DOMAIN) for _ in set_columns]
        if rng.random() < 0.7:
            where_column = rng.choice(columns)
            where_sql = f" WHERE {where_column} = ?"
            params_list.append(rng.choice(VALUE_DOMAIN))
        else:
            where_sql = ""
        sql = f"UPDATE {table} SET {set_sql}{where_sql}"
        template, values = templateize(sql, tuple(params_list))
        return QueryInstance(
            template, values, _random_pre_image(rng, table, COLUMN_SCHEMA)
        )
    column = rng.choice(columns)
    sql = f"DELETE FROM {table} WHERE {column} = ?"
    params = (rng.choice(VALUE_DOMAIN),)
    template, values = templateize(sql, params)
    return QueryInstance(
        template, values, _random_pre_image(rng, table, COLUMN_SCHEMA)
    )


#: Tables of the witness mix with a primary key (``id``).
_KEYED = ("items", "orders", "users")

#: Joins of the witness mix: (SQL, output position of the witnessed
#: key).  Each projects one keyed table's ``id`` beside a partner column.
_WITNESS_JOINS: tuple[tuple[str, int], ...] = (
    (
        "SELECT items.id, items.price, bids.amount FROM items, bids "
        "WHERE items.id = bids.item_id AND bids.user_id = ?",
        0,
    ),
    (
        "SELECT comments.rating, users.id, users.name FROM users, comments "
        "WHERE users.id = comments.from_user AND comments.item_id = ?",
        1,
    ),
    (
        "SELECT orders.id, orders.total FROM orders JOIN order_line "
        "ON orders.id = order_line.order_id WHERE order_line.qty = ? "
        "ORDER BY orders.status",
        0,
    ),
)


def witness_catalog() -> Catalog:
    """The witness mix's catalog: :data:`SCHEMA` with ``id`` keys."""
    return Catalog(
        {t: tuple(cols) for t, cols in SCHEMA.items()},
        {table: "id" for table in _KEYED},
    )


def _random_witness_read(rng: random.Random) -> QueryInstance:
    """Witness-mix reads: a keyed table's ``id`` projected among columns
    the read only displays, single-table or joined, and a row witness
    of a few keys.  Some reads carry none (they ran before their table's
    first write), some a witness at a position that is not the key, and
    some are shapes no witness is defined for (``*``, aggregates)."""
    roll = rng.random()
    if roll < 0.6:
        table = rng.choice(_KEYED)
        others = [column for column in SCHEMA[table] if column != "id"]
        columns = ["id"] + rng.sample(others, rng.randrange(1, len(others)))
        rng.shuffle(columns)
        sql = (
            f"SELECT {', '.join(columns)} FROM {table} "
            f"WHERE {rng.choice(others)} = ?"
        )
        if rng.random() < 0.4:
            sql += f" ORDER BY {rng.choice(others)}"
        position = columns.index("id")
    elif roll < 0.85:
        sql, position = rng.choice(_WITNESS_JOINS)
    else:
        table = rng.choice(_KEYED)
        column = rng.choice(SCHEMA[table][1:])
        sql = rng.choice(
            (
                f"SELECT * FROM {table} WHERE {column} = ?",
                f"SELECT id, COUNT(*) FROM {table} WHERE {column} = ? GROUP BY id",
            )
        )
        position = 0
    template, values = templateize(sql, (rng.choice(VALUE_DOMAIN),))
    witness = None
    if rng.random() < 0.8:
        if rng.random() < 0.1:
            position += 1  # captured somewhere that is not the key
        keys = tuple(rng.sample(VALUE_DOMAIN, rng.randrange(0, 4)))
        witness = ((position, keys),)
    return QueryInstance(template, values, witness=witness)


def _random_witness_write(rng: random.Random) -> QueryInstance:
    """Witness-mix writes: mostly UPDATEs of a keyed table setting a
    column reads only display (sometimes one they filter or order on,
    sometimes the key), by key or by another column, with pre-images
    that may lack rows, the key or everything; else the default mix."""
    if rng.random() < 0.3:
        return random_write(rng)
    table = rng.choice(_KEYED)
    columns = SCHEMA[table]
    set_columns = rng.sample(columns[1:], rng.randrange(1, 3))
    if rng.random() < 0.1:
        set_columns.append("id")
    set_sql = ", ".join(f"{column} = ?" for column in set_columns)
    where = "id" if rng.random() < 0.7 else rng.choice(columns[1:])
    params = tuple(rng.choice(VALUE_DOMAIN) for _ in range(len(set_columns) + 1))
    template, values = templateize(
        f"UPDATE {table} SET {set_sql} WHERE {where} = ?", params
    )
    return QueryInstance(template, values, _random_pre_image(rng, table))


#: Joins of the partner mix whose INSERTs a partner probe may excuse:
#: each binds a column of the table across the join, or joins a keyed
#: table by its (fresh) key.
_PARTNER_JOINS = (
    "SELECT items.id, items.price FROM items, users "
    "WHERE items.seller = users.id AND users.region = ? AND items.category = ?",
    "SELECT users.name, bids.amount FROM bids, users "
    "WHERE bids.user_id = users.id AND bids.item_id = ?",
    "SELECT items.price, bids.amount FROM items JOIN bids "
    "ON items.id = bids.item_id WHERE items.category = ? ORDER BY bids.amount",
    "SELECT orders.total FROM orders, order_line "
    "WHERE orders.id = order_line.order_id AND order_line.qty = ?",
    "SELECT comments.rating, users.name FROM comments, users "
    "WHERE comments.from_user = users.id AND users.region = ?",
)

#: Reads a partner probe must never excuse: an outer join keeps the new
#: row without a partner, a self-join binds the inserted table twice,
#: a subquery reads it where no probe looks.
NEVER_EXCUSED = (
    "SELECT items.price FROM items LEFT JOIN users "
    "ON items.seller = users.id WHERE users.region = ?",
    "SELECT users.name FROM users LEFT JOIN items "
    "ON items.seller = users.id WHERE items.category = ?",
    "SELECT a.price FROM items a, items b "
    "WHERE a.seller = b.seller AND b.category = ?",
    "SELECT price FROM items WHERE seller IN "
    "(SELECT id FROM users WHERE region = ?)",
)

#: What an INSERT into a table of the partner mix probes: (column of
#: the new row, partner table, partner column) -- every join of the
#: mix, both ways, whether or not a read could use it.
_PARTNER_PROBES: dict[str, tuple[tuple[str, str, str], ...]] = {
    "users": (
        ("id", "items", "seller"),
        ("id", "bids", "user_id"),
        ("id", "comments", "from_user"),
    ),
    "items": (
        ("seller", "users", "id"),
        ("id", "bids", "item_id"),
    ),
    "bids": (("item_id", "items", "id"), ("user_id", "users", "id")),
    "comments": (("from_user", "users", "id"),),
    "orders": (("id", "order_line", "order_id"),),
    "order_line": (("order_id", "orders", "id"),),
}


def _partner_tables(rng: random.Random) -> dict[str, list[dict[str, object]]]:
    """The partner mix's starting table state: a few rows per table,
    keys from :data:`VALUE_DOMAIN`, every other column random in it."""
    tables: dict[str, list[dict[str, object]]] = {}
    for table, columns in SCHEMA.items():
        tables[table] = [
            {
                column: key if column == "id" else rng.choice(VALUE_DOMAIN)
                for column in columns
            }
            for key in VALUE_DOMAIN
        ]
    return tables


def _random_partner_read(
    rng: random.Random, tables: dict[str, list[dict[str, object]]]
) -> QueryInstance:
    """Partner-mix reads: joins a probe may excuse, joins it must never
    excuse, and the default mix."""
    roll = rng.random()
    if roll < 0.25:
        return random_read(rng)
    sql = rng.choice(_PARTNER_JOINS if roll < 0.8 else NEVER_EXCUSED)
    values = tuple(rng.choice(VALUE_DOMAIN) for _ in range(sql.count("?")))
    return QueryInstance(*templateize(sql, values))


def _random_partner_write(
    rng: random.Random, tables: dict[str, list[dict[str, object]]]
) -> QueryInstance:
    """Partner-mix writes: mostly INSERTs, a keyed table's with a fresh
    key, whose row joins rows of the generator's own tables; each
    carries the partner rows those tables hold, as the JDBC aspect's
    probes would fetch them.  Some carry no probes, or miss one; else
    the default mix.  The new row joins the tables for later writes."""
    if rng.random() < 0.2:
        return random_write(rng)
    table = rng.choice(sorted(_PARTNER_PROBES))
    rows = tables[table]
    row = {column: rng.choice(VALUE_DOMAIN) for column in SCHEMA[table]}
    if "id" in row:
        row["id"] = len(rows)
    for column, partner, partner_column in _PARTNER_PROBES[table]:
        if column != "id" and rng.random() < 0.3:
            # Now and then a reference to a row created since.
            row[column] = rng.choice(tables[partner])[partner_column]
    rows.append(row)
    # Half the INSERTs name the key; the others leave it to the
    # database, and only the after-image says which key it generated.
    chosen = [
        column for column in SCHEMA[table] if column != "id" or rng.random() < 0.5
    ]
    template, values = templateize(
        f"INSERT INTO {table} ({', '.join(chosen)}) "
        f"VALUES ({', '.join('?' for _ in chosen)})",
        tuple(row[column] for column in chosen),
    )
    partners = None
    if rng.random() < 0.9:
        probes = list(_PARTNER_PROBES[table])
        if rng.random() < 0.1:
            probes.remove(rng.choice(probes))
        partners = tuple(
            (
                partner,
                partner_column,
                row[column],
                tuple(
                    tuple(found.items())
                    for found in tables[partner]
                    if found[partner_column] == row[column]
                ),
            )
            for column, partner, partner_column in probes
        )
    return QueryInstance(template, values, (dict(row),), partners)


@dataclass(frozen=True)
class Workload:
    """What a differential run draws from: the generator pair, the
    schema catalog both sides share (None: catalog-free analysis),
    whether a never-read probe fires each round, the rung the
    fragment-granular differential runs it at, and ``tables``: a maker
    of the table state the generators share, for a mix whose writes
    carry rows (they then take it as a second argument)."""

    reader: Callable[..., QueryInstance]
    writer: Callable[..., QueryInstance]
    catalog: Catalog | None = None
    probe: bool = False
    policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY
    tables: Callable[[random.Random], dict] | None = None
    #: Read SQL whose instances no partner probe may ever excuse.
    never_excused: tuple[str, ...] = ()

    def generators(
        self, rng: random.Random
    ) -> tuple[
        Callable[[random.Random], QueryInstance],
        Callable[[random.Random], QueryInstance],
    ]:
        """The reader and writer of one run, over fresh table state."""
        if self.tables is None:
            return self.reader, self.writer
        tables = self.tables(rng)
        return (
            lambda rng: self.reader(rng, tables),
            lambda rng: self.writer(rng, tables),
        )


WORKLOADS: dict[str, Workload] = {
    "default": Workload(random_read, random_write),
    "column": Workload(
        _random_column_read,
        _random_column_write,
        catalog=column_catalog(),
        probe=True,
    ),
    "witness": Workload(
        _random_witness_read,
        _random_witness_write,
        catalog=witness_catalog(),
        policy=InvalidationPolicy.ROW_WITNESS,
    ),
    "partner": Workload(
        _random_partner_read,
        _random_partner_write,
        catalog=witness_catalog(),
        policy=InvalidationPolicy.ROW_WITNESS,
        tables=_partner_tables,
        never_excused=NEVER_EXCUSED,
    ),
}


def _register_page(
    pages: PageCache, rng: random.Random, key: str, reader
) -> PageEntry:
    dependencies = tuple(
        reader(rng) for _ in range(rng.randrange(1, 4))
    )
    entry = PageEntry(key=key, body=f"body of {key}", dependencies=dependencies)
    pages.insert(entry)
    return entry


@dataclass
class FragmentDifferentialResult:
    """Outcome of one fragment-granular differential run."""

    seed: int
    rounds: int
    n_nodes: int
    workload: str = "default"
    writes_tested: int = 0
    entries_doomed: int = 0
    #: Keys doomed purely by containment closure (a page or outer
    #: fragment whose own dependencies never matched the write).  Must
    #: be non-zero for the run to have exercised the closure at all.
    closure_doomed: int = 0
    #: Instances the row witness excused across the ring (witness mix).
    witness_skips: int = 0
    #: Instances partner probes excused across the ring (partner mix).
    partner_skips: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_fragment_differential(
    seed: int = 0,
    rounds: int = 40,
    n_pages: int = 30,
    n_fragments: int = 20,
    n_nodes: int = 1,
    max_mismatches: int = 5,
    workload: str = "default",
) -> FragmentDifferentialResult:
    """Fragment-granular dooming vs. a brute-force reference.

    Populates a :class:`~repro.cluster.router.ClusterRouter` with
    fragment entries (``frag://`` keys, their own dependencies, possibly
    nested in earlier fragments) and page entries (own dependencies plus
    containment edges onto a random fragment subset), then replays
    random write batches through :meth:`process_write_request` and
    checks the returned casualty union against an oracle built from
    first principles: a brute-force (unindexed) invalidator over a
    mirror of every entry's dependencies, unioned with a plain BFS up a
    reference copy of the containment edges.  The router's sharding,
    bus delivery and containment closure must all be invisible: same
    entries, same writes, same doomed set.

    Mirrors and reference edges are only updated at registration time,
    never at doom time -- exactly the router's own contract (a doomed
    page's edges linger until its replacement re-registers), so a stale
    edge that re-dooms an absent key is *expected* on both sides.

    With ``workload="column"`` every node's cache and the brute oracle
    share the :func:`column_catalog`, the workload switches to the
    column mix, and the routed path runs with lineage pruning live --
    proving the column plans stay invisible across sharding.
    ``workload="witness"`` runs the witness mix at ``ROW_WITNESS`` on
    both sides, so the row witnesses the entries carry must excuse the
    same instances on every shard as in the oracle.
    """
    from repro.cluster.router import ClusterRouter, make_cache_factory

    mix = WORKLOADS[workload]
    catalog = mix.catalog
    rng = random.Random(seed)
    reader, writer = mix.generators(rng)
    router = ClusterRouter(
        [f"node-{i}" for i in range(n_nodes)],
        make_cache_factory(catalog=catalog, invalidation_policy=mix.policy),
    )
    mirror = PageCache(make_policy("unbounded", None))
    brute = Invalidator(
        mirror,
        AnalysisCache(QueryAnalysisEngine(catalog=catalog)),
        CacheStats(),
        mix.policy,
        indexed=False,
    )
    #: Reference containment: container key -> fragment keys it embeds.
    edges: dict[str, set[str]] = {}
    fragment_keys = [f"frag://frag-{i}?v={i}" for i in range(n_fragments)]
    page_keys = [f"page-{index}" for index in range(n_pages)]
    #: Insert order: fragments nest only in earlier fragments, pages in
    #: fragments, so a container follows everything it may embed.
    position = {key: i for i, key in enumerate(fragment_keys + page_keys)}
    result = FragmentDifferentialResult(
        seed=seed,
        rounds=rounds,
        n_nodes=n_nodes,
        workload=workload,
    )

    def draw(key: str) -> tuple[str, tuple[str, ...], list]:
        """A fresh entry for ``key``: what it embeds and its own reads.
        Pages may carry no SQL of their own (every read lives in a
        fragment); leaf fragments always depend on something."""
        embedded = embedded_for(key)
        lo = 0 if embedded else 1
        return key, embedded, [reader(rng) for _ in range(rng.randrange(lo, 4))]

    def register(drawn: list[tuple[str, tuple[str, ...], list]]) -> None:
        # Containers after their fragments: an insert whose embedded
        # fragment is not resident is refused (a stale insert).
        for key, embedded, reads in sorted(drawn, key=lambda d: position[d[0]]):
            router.insert_key(key, f"body of {key}", reads, fragments=embedded)
            mirror.insert(
                PageEntry(
                    key=key,
                    body=f"body of {key}",
                    dependencies=tuple(reads),
                )
            )
            edges[key] = set(embedded)

    def embedded_for(key: str) -> tuple[str, ...]:
        if key.startswith("frag://"):
            # Fragments may nest, but only in earlier fragments so the
            # containment graph stays acyclic.
            index = fragment_keys.index(key)
            pool = fragment_keys[:index]
            if not pool or rng.random() < 0.6:
                return ()
            return tuple(rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1)))
        if rng.random() < 0.2:
            return ()
        return tuple(
            rng.sample(fragment_keys, rng.randrange(1, 4))
        )

    def reference_closure(doomed: set[str]) -> set[str]:
        containers: set[str] = set()
        frontier = list(doomed)
        while frontier:
            key = frontier.pop()
            for container, embedded in edges.items():
                if (
                    key in embedded
                    and container not in containers
                    and container not in doomed
                ):
                    containers.add(container)
                    frontier.append(container)
        return containers

    register([draw(key) for key in fragment_keys + page_keys])

    for round_no in range(rounds):
        batch = [writer(rng) for _ in range(rng.randrange(1, 4))]
        result.writes_tested += len(batch)

        base = brute.affected_pages(batch)
        closure = reference_closure(base)
        expected = base | closure
        actual = router.process_write_request("/differential", batch)
        if actual != expected:
            result.mismatches.append(
                f"round {round_no} ({n_nodes} nodes): doomed sets differ; "
                f"router-only={sorted(actual - expected)}, "
                f"reference-only={sorted(expected - actual)}, "
                f"writes={[str(w.template.text) for w in batch]}"
            )
            if len(result.mismatches) >= max_mismatches:
                break
        result.entries_doomed += len(actual)
        result.closure_doomed += len(closure)

        brute.process_writes(batch)
        for key in closure:
            mirror.release(key)
        # Drawn in sorted order so rng consumption (and therefore the
        # whole run) is reproducible across processes despite set
        # iteration order.
        register([draw(key) for key in sorted(expected)])
    result.witness_skips = router.stats.witness_skips
    result.partner_skips = router.stats.partner_skips
    return result


def _lineage_covers(
    covered: set[tuple[str, str]], table: str, column: str
) -> bool:
    """Does any covered (table, column) pair reach ``table.column``?

    Honors the analysis conventions: ``(t, "*")`` reads every column of
    ``t`` and ``("?", c)`` may belong to any table.
    """
    return any(
        (t == table or t == "?") and (c == "*" or c == column)
        for t, c in covered
    )


def _never_read_probe(
    rng: random.Random, engine: QueryAnalysisEngine, pages: PageCache
) -> QueryInstance | None:
    """A write batch that must doom zero pages, or None.

    Unions the lineage read sets of every *currently registered* read
    template and picks a never-read (table, column) pair outside that
    union -- dynamic, because a registered ``SELECT *`` template's
    catalog-expanded read set legitimately covers its table's never-read
    tail, taking those pairs off the menu for the round.
    """
    covered: set[tuple[str, str]] = set()
    for template in pages.dependencies.read_templates():
        covered |= engine.lineage(template).read_set
    candidates = [
        (table, column)
        for table in sorted(NEVER_READ_COLUMNS)
        for column in NEVER_READ_COLUMNS[table]
        if not _lineage_covers(covered, table, column)
    ]
    if not candidates:
        return None
    table, column = rng.choice(candidates)
    where = rng.choice(SCHEMA[table])
    sql = f"UPDATE {table} SET {column} = ? WHERE {where} = ?"
    params = (rng.choice(VALUE_DOMAIN), rng.choice(VALUE_DOMAIN))
    template, values = templateize(sql, params)
    return QueryInstance(
        template, values, _random_pre_image(rng, table, COLUMN_SCHEMA)
    )


def _never_excused(
    mix: Workload,
    engine: QueryAnalysisEngine,
    pages: PageCache,
    batch: list[QueryInstance],
) -> list[str]:
    """The registered instances of ``mix.never_excused`` reads that a
    write of ``batch`` would excuse by its partner probes (must be
    none)."""
    found = []
    for sql in mix.never_excused:
        template, _values = templateize(sql, (0,) * sql.count("?"))
        for _key, read in pages.dependencies.instances_for(template):
            for write in batch:
                pair = engine.analyse_pair(template, write.template)
                if partners_excuse(pair, read.values, write):
                    found.append(f"{sql} {read.values!r}")
    return found


def run_differential(
    seed: int = 0,
    rounds: int = 60,
    n_pages: int = 80,
    policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY,
    max_mismatches: int = 5,
    workload: str = "default",
) -> DifferentialResult:
    """Run indexed and brute-force invalidation side by side.

    Both invalidators share one page cache (and therefore one dependency
    table with its indexes); :meth:`Invalidator.affected_pages` is pure,
    so each round compares the two doomed sets on identical state before
    applying the batch for real and re-registering replacement pages.
    ``workload`` names the :data:`WORKLOADS` record the run draws from.
    """
    mix = WORKLOADS[workload]
    rng = random.Random(seed)
    reader, writer = mix.generators(rng)
    pages = PageCache(make_policy("unbounded", None))
    indexed, brute = (
        Invalidator(
            pages,
            AnalysisCache(QueryAnalysisEngine(catalog=mix.catalog)),
            CacheStats(),
            policy,
            indexed=use_index,
        )
        for use_index in (True, False)
    )
    result = DifferentialResult(seed=seed, rounds=rounds, policy=policy.value)

    serial = 0
    for serial in range(n_pages):
        _register_page(pages, rng, f"page-{serial}", reader)

    for round_no in range(rounds):
        batch = [writer(rng) for _ in range(rng.randrange(1, 4))]
        if len(batch) > 1 and rng.random() < 0.4:
            batch.append(rng.choice(batch))  # duplicate write in batch
        result.writes_tested += len(batch)

        doomed_indexed = indexed.affected_pages(batch)
        doomed_brute = brute.affected_pages(batch)
        if doomed_indexed != doomed_brute:
            result.mismatches.append(
                f"round {round_no}: doomed sets differ; "
                f"indexed-only={sorted(doomed_indexed - doomed_brute)}, "
                f"brute-only={sorted(doomed_brute - doomed_indexed)}, "
                f"writes={[str(w.template.text) for w in batch]}"
            )
            if len(result.mismatches) >= max_mismatches:
                break

        # The single-flight staleness check must agree too.
        prospective = [reader(rng) for _ in range(rng.randrange(1, 4))]
        verdict_indexed = indexed.intersects_any(prospective, batch)
        verdict_brute = brute.intersects_any(prospective, batch)
        result.intersects_checks += 1
        if verdict_indexed != verdict_brute:
            result.mismatches.append(
                f"round {round_no}: intersects_any diverged "
                f"(indexed={verdict_indexed}, brute={verdict_brute})"
            )
            if len(result.mismatches) >= max_mismatches:
                break

        excused = _never_excused(mix, indexed.engine, pages, batch)
        if excused:
            result.mismatches.append(
                f"round {round_no}: partner probes excused {excused}"
            )
            if len(result.mismatches) >= max_mismatches:
                break

        probe = (
            _never_read_probe(rng, indexed.engine, pages)
            if mix.probe
            else None
        )
        if probe is not None:
            result.never_read_probes += 1
            probe_doomed = indexed.affected_pages(
                [probe]
            ) | brute.affected_pages([probe])
            if probe_doomed:
                result.never_read_doomed += len(probe_doomed)
                result.mismatches.append(
                    f"round {round_no}: never-read probe "
                    f"{probe.template.text!r} doomed "
                    f"{sorted(probe_doomed)}"
                )
                if len(result.mismatches) >= max_mismatches:
                    break

        doomed = indexed.process_writes(batch)
        result.pages_doomed += len(doomed)
        for _ in range(len(doomed)):
            serial += 1
            _register_page(pages, rng, f"page-{serial}", reader)

    snapshot_indexed = indexed._stats.snapshot()
    snapshot_brute = brute._stats.snapshot()
    result.templates_skipped = snapshot_indexed["templates_skipped_by_index"]
    result.instances_skipped = snapshot_indexed["instances_skipped_by_index"]
    result.pair_analyses_indexed = snapshot_indexed["pair_analyses"]
    result.pair_analyses_brute = snapshot_brute["pair_analyses"]
    result.intersection_tests_indexed = snapshot_indexed["intersection_tests"]
    result.intersection_tests_brute = snapshot_brute["intersection_tests"]
    result.templates_skipped_by_lineage = snapshot_indexed[
        "templates_skipped_by_lineage"
    ]
    result.column_plans_built = snapshot_indexed["column_plans_built"]
    result.witness_skips_indexed = snapshot_indexed["witness_skips"]
    result.witness_skips_brute = snapshot_brute["witness_skips"]
    result.partner_skips_indexed = snapshot_indexed["partner_skips"]
    result.partner_skips_brute = snapshot_brute["partner_skips"]
    return result


def run_column_differential(
    seed: int = 0,
    rounds: int = 60,
    n_pages: int = 80,
    policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY,
    max_mismatches: int = 5,
) -> DifferentialResult:
    """Column-mix differential: lineage-pruned indexed vs. brute force.

    The workload is the column mix (``SELECT *``, projected subsets,
    joins with ambiguous and uniquely-owned unqualified columns,
    aggregates, IN-subqueries; UPDATEs biased toward the never-read
    tail) and both engines share the :func:`column_catalog`, so any
    unsound column plan shows up as a doomed-set divergence.  Each round
    additionally fires a never-read probe (see :func:`_never_read_probe`)
    asserting that an UPDATE to a column no registered template reads
    dooms **zero** pages on both sides.
    """
    return run_differential(
        seed, rounds, n_pages, policy, max_mismatches, workload="column"
    )


def run_partner_differential(
    seed: int = 0,
    rounds: int = 60,
    n_pages: int = 80,
    policy: InvalidationPolicy = InvalidationPolicy.ROW_WITNESS,
    max_mismatches: int = 5,
) -> DifferentialResult:
    """Partner-mix differential: join reads a partner probe may excuse
    and reads it must never excuse (:data:`NEVER_EXCUSED`); INSERTs with
    fresh keys carrying the partner rows of the generator's own tables.
    Both sides ask the probes before the intersection test, so a path
    that skips them shows up as a doomed-set divergence, and an excused
    never-excused read as a mismatch of its own."""
    return run_differential(
        seed, rounds, n_pages, policy, max_mismatches, workload="partner"
    )


def run_witness_differential(
    seed: int = 0,
    rounds: int = 60,
    n_pages: int = 80,
    policy: InvalidationPolicy = InvalidationPolicy.ROW_WITNESS,
    max_mismatches: int = 5,
) -> DifferentialResult:
    """Witness-mix differential: reads that project a table's key and
    carry row witnesses, UPDATEs of the columns they only display (see
    :func:`_random_witness_read`).  The witness test follows the
    intersection test on both sides, so any path that skips it, or
    hands it the wrong witness, shows up as a doomed-set divergence."""
    return run_differential(
        seed, rounds, n_pages, policy, max_mismatches, workload="witness"
    )
