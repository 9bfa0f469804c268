"""Differential correctness harness: a ring's invalidation vs. brute force.

The indexed invalidation engine is only admissible if it is *invisible*:
for any population of cached entries and any write, the keys a ring
dooms -- through its sharding, bus, doom programs, value indexes,
lineage skips, row witnesses, partner probes and containment closure --
must equal what the paper's brute-force protocol
(``Invalidator(indexed=False)`` over a mirror of every entry's reads)
dooms plus a plain BFS up a reference copy of the containment edges, and
the single-flight ``intersects_any`` verdict must agree too.

Nothing the two sides compare is made up.  One seeded generator
(:class:`Generator`) fills a schema -- keyed tables, unkeyed link
tables, a never-read column tail -- and draws read SQL (single-table
equality, range, disjunctive and unfiltered reads over projected subsets
or ``*``; qualified and unqualified joins, outer joins, self-joins;
``IN`` / ``NOT IN`` subqueries; aggregates; ``ORDER BY ... LIMIT``) and
write SQL (INSERT with and without the key, UPDATE, DELETE).  Every
statement executes on the harness's own :class:`~repro.db.engine.
Database` through the JDBC aspect, woven for the run: each read's row
witness and each write's before/after image and partner probes are the
engine's and the aspect's own.  The deliberate faults the protocol must
handle conservatively are named perturbations of executed instances
(:data:`PERTURBATIONS`), each counted.

Any divergence is a bug in the indexes, pruning plans, verdict sharing
or closure, never acceptable drift.  ``python -m repro differential``
runs every arm from the shell; ``tests/test_invalidation_differential.py``
runs arms and seeds in CI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cache.analysis import (
    InvalidationPolicy,
    QueryAnalysisEngine,
    partners_excuse,
)
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.db import connect
from repro.db.engine import Database
from repro.db.schema import Column, ColumnType, TableSchema
from repro.errors import IntegrityError
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

#: Read-visible columns per table: what the read generator projects,
#: filters, joins and orders on.
SCHEMA: dict[str, tuple[str, ...]] = {
    "users": ("id", "name", "rating", "region"),
    "items": ("id", "seller", "category", "price", "qty"),
    "bids": ("item_id", "user_id", "amount"),
    "comments": ("item_id", "from_user", "rating"),
    "orders": ("id", "customer_id", "status", "total"),
    "order_line": ("order_id", "item_id", "qty"),
}

#: Columns no read names (bookkeeping: audit stamps, counters).  Writes
#: target them often, so a correct lineage prune skips those pairs --
#: except against ``SELECT *``, whose catalog-expanded read set covers
#: them.
NEVER_READ_COLUMNS: dict[str, tuple[str, ...]] = {
    "users": ("last_login", "audit_stamp"),
    "items": ("view_count", "audit_stamp"),
    "bids": ("placed_at",),
    "comments": ("flag_count",),
    "orders": ("ship_addr_id", "audit_stamp"),
    "order_line": ("picked_at",),
}

#: Tables with a primary key, always ``id`` (auto-increment).
KEYED = ("items", "orders", "users")

#: Small value domain, so reads and writes collide often enough to
#: exercise both the "prune" and the "must test" paths.
VALUE_DOMAIN = range(6)

#: Templates a run draws: its reads and writes bind fresh values to
#: these, as an application's requests do to its statements.
READ_TEMPLATES = 48
WRITE_TEMPLATES = 32

#: Equi-joins the read generator draws from: a keyed table's key
#: against a column referencing it.
JOINS: tuple[tuple[str, str, str], ...] = (
    ("items", "bids", "items.id = bids.item_id"),
    ("items", "order_line", "items.id = order_line.item_id"),
    ("users", "bids", "users.id = bids.user_id"),
    ("orders", "order_line", "orders.id = order_line.order_id"),
    ("users", "comments", "users.id = comments.from_user"),
    ("users", "items", "users.id = items.seller"),
)

#: (outer table, outer column, inner table, inner column) shapes for
#: ``[NOT] IN (SELECT ...)`` reads.
SUBQUERIES: tuple[tuple[str, str, str, str], ...] = (
    ("users", "id", "bids", "user_id"),
    ("items", "id", "order_line", "item_id"),
    ("items", "seller", "users", "id"),
    ("orders", "id", "order_line", "order_id"),
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

#: The faults applied to executed instances, in the order the CLI
#: prints their counts, each to every n-th instance it can apply to
#: (the first included): a write without its image, a write image
#: missing a column in every row, a read witness captured at an output
#: position that is not a key, an INSERT missing one partner probe.
#: Each can only keep a doom the executed instance would have spared.
PERTURBATIONS = {
    "no image": 10, "incomplete capture": 6, "witness off the key": 10, "missing probe": 3
}


class _Schemaless(Database):
    """A database that reports no schema epoch, so the woven driver
    mirrors no catalog into the ring (:meth:`ClusterRouter.sync_catalog`):
    the catalog-free arm's analysis, as before any schema is known."""

    schema_epoch = None


def build_database(rng: random.Random, catalog: bool = True) -> Database:
    """The generator's schema, eight rows per table: keys 0-7 on the
    keyed tables, every other column drawn from :data:`VALUE_DOMAIN`."""
    database = Database("differential") if catalog else _Schemaless("differential")
    for table in sorted(SCHEMA):
        columns = SCHEMA[table] + NEVER_READ_COLUMNS[table]
        database.create_table(
            TableSchema(
                table,
                [Column(column, ColumnType.INT) for column in columns],
                primary_key="id" if table in KEYED else None,
            )
        )
        database.insert_rows(
            table,
            [
                {c: key if c == "id" else rng.choice(VALUE_DOMAIN) for c in columns}
                for key in range(8)
            ],
        )
    return database


def _single_table_read(rng: random.Random, witnessed: bool = False) -> str:
    """A single-table read; ``witnessed``: of a keyed table, showing every
    column, the key among them, with a WHERE no value index can narrow
    (instances a ring's row witness, not its indexes, must excuse)."""
    table = rng.choice(KEYED if witnessed else sorted(SCHEMA))
    columns = SCHEMA[table]
    projection = "*"
    if witnessed or rng.random() < 0.8:
        shown = len(columns) if witnessed else rng.randrange(1, len(columns) + 1)
        projected = rng.sample(columns, shown)
        shows_key = witnessed or rng.random() < 0.6
        if table in KEYED and "id" not in projected and shows_key:
            projected.append("id")  # a row witness shows the keys
        projection = ", ".join(projected)
    first, second = rng.sample(columns, 2)
    sql = f"SELECT {projection} FROM {table}"
    shape = 0.55 + 0.30 * rng.random() if witnessed else rng.random()
    if shape < 0.35:
        sql += f" WHERE {first} = ?"
    elif shape < 0.55:
        sql += f" WHERE {first} = ? AND {second} = ?"
    elif shape < 0.70:
        sql += f" WHERE {first} = ? OR {second} = ?"
    elif shape < 0.85:
        sql += f" WHERE {first} > ?"
    if rng.random() < 0.25:
        sql += f" ORDER BY {rng.choice(columns)}"
        if rng.random() < 0.6:
            sql += f" LIMIT {rng.randrange(1, 4)}"
    return sql


def _join_read(rng: random.Random) -> str:
    """A two-table join, comma or ``JOIN ... ON``, projecting one to three
    columns -- unqualified only where one side owns the name."""
    left, right, condition = rng.choice(JOINS)
    pool = [(table, column) for table in (left, right) for column in SCHEMA[table]]
    names = []
    for table, column in rng.sample(pool, rng.randrange(1, 4)):
        unique = (column in SCHEMA[left]) != (column in SCHEMA[right])
        names.append(column if unique and rng.random() < 0.5 else f"{table}.{column}")
    filtered = rng.choice((left, right))
    where = f"{filtered}.{rng.choice(SCHEMA[filtered])} = ?"
    if rng.random() < 0.5:
        source, where = f"{left}, {right}", f"{condition} AND {where}"
    else:
        source = f"{left} JOIN {right} ON {condition}"
    sql = f"SELECT {', '.join(names)} FROM {source} WHERE {where}"
    if rng.random() < 0.25:
        ordered = rng.choice((left, right))
        sql += f" ORDER BY {ordered}.{rng.choice(SCHEMA[ordered])}"
    return sql


def _aggregate_read(rng: random.Random) -> str:
    table = rng.choice(sorted(SCHEMA))
    columns = SCHEMA[table]
    column, target = rng.choice(columns), rng.choice(columns)
    roll = rng.random()
    if roll < 0.4:
        return f"SELECT COUNT(*) FROM {table} WHERE {column} = ?"
    if roll < 0.7 or table not in KEYED:
        return (
            f"SELECT {column}, MAX({target}) FROM {table} "
            f"GROUP BY {column} ORDER BY {column}"
        )
    return f"SELECT id, COUNT(*) FROM {table} WHERE {target} = ? GROUP BY id"


def read_template(rng: random.Random, roll: float) -> str:
    """A generated read template (SQL text with ``?`` placeholders) of
    the shape ``roll`` (in [0, 1)) picks."""
    if roll < 0.45:
        return _single_table_read(rng, witnessed=roll >= 0.30)
    if roll < 0.70:
        return _join_read(rng)
    if roll < 0.78:
        return rng.choice(NEVER_EXCUSED)
    if roll < 0.88:
        outer, outer_column, inner, inner_column = rng.choice(SUBQUERIES)
        negated = "NOT IN" if rng.random() < 0.3 else "IN"
        return (
            f"SELECT {rng.choice(SCHEMA[outer])} FROM {outer} WHERE {outer_column} "
            f"{negated} (SELECT {inner_column} FROM {inner} "
            f"WHERE {rng.choice(SCHEMA[inner])} = ?)"
        )
    return _aggregate_read(rng)


def write_template(rng: random.Random, kind: float) -> str:
    """A generated write template of the kind ``kind`` (in [0, 1))
    picks: an INSERT (half the keyed ones naming the key, which
    :meth:`Generator.bind` makes a fresh one), an UPDATE -- one in four
    of a keyed table's shown columns by key, what a row witness can
    excuse -- or a DELETE."""
    witnessed = 0.35 <= kind < 0.475
    table = rng.choice(KEYED if witnessed else sorted(SCHEMA))
    visible = [column for column in SCHEMA[table] if column != "id"]
    never_read = list(NEVER_READ_COLUMNS[table])
    if kind < 0.35:
        columns = [c for c in visible + never_read if rng.random() < 0.8] or visible[:1]
        if table in KEYED and rng.random() < 0.5:
            columns.insert(0, "id")
        return (
            f"INSERT INTO {table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})"
        )
    first, second = rng.sample(SCHEMA[table], 2)
    where = rng.random()
    if (witnessed or where < 0.45) and table in KEYED:
        clause = " WHERE id = ?"
    elif where < 0.75:
        clause = f" WHERE {first} = ?"
    elif where < 0.90:
        clause = f" WHERE {first} = ? OR {second} = ?"
    else:
        clause = ""
    if kind >= 0.85:
        return f"DELETE FROM {table}{clause or f' WHERE {first} = ?'}"
    pool = visible
    if not witnessed:
        pool = rng.choice((never_read, visible, visible + never_read))
    assigned = rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))
    if table in KEYED and rng.random() < 0.05:
        assigned.append("id")  # rewrites the key: refused on a duplicate
    return f"UPDATE {table} SET {', '.join(f'{c} = ?' for c in assigned)}{clause}"


class Generator:
    """Executed rounds of the seeded generator over one woven ring.

    ``with Generator(seed, policy, n_nodes, catalog) as generator:``
    builds the database, draws the run's read and write templates (a
    fixed set per seed, as an application has) and an :class:`~repro.
    cache.autowebcache.AutoWebCache` ring (``generator.router``), and
    weaves the driver for the block.  :meth:`reads` and :meth:`batch`
    execute templates bound to fresh values inside a read or write
    context of the ring's own collector and hand back what the JDBC
    aspect recorded, perturbed (:meth:`perturb`); nothing is inserted or
    invalidated for the caller.
    """

    def __init__(
        self,
        seed: int = 0,
        policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY,
        n_nodes: int = 1,
        catalog: bool = True,
    ) -> None:
        rng = self.rng = random.Random(seed)
        self.database = build_database(rng, catalog)
        # Stratified: every run holds each shape in its proportion.
        self.read_templates = [
            read_template(rng, (i % 10 + rng.random()) / 10)
            for i in range(READ_TEMPLATES)
        ]
        self.write_templates = [
            write_template(rng, (i % 8 + rng.random()) / 8)
            for i in range(WRITE_TEMPLATES)
        ]
        self.awc = AutoWebCache(policy=policy, n_nodes=n_nodes)
        self.router = self.awc.router
        self.statement = connect(self.database).create_statement()
        #: How often each of :data:`PERTURBATIONS` was applied.
        self.perturbed = dict.fromkeys(PERTURBATIONS, 0)
        #: How many executed instances each could have applied to.
        self._eligible = dict.fromkeys(PERTURBATIONS, 0)

    def __enter__(self) -> "Generator":
        self.awc.install([])
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.awc.uninstall()

    def bind(self, sql: str) -> tuple[str, tuple]:
        """``sql`` with values drawn for its placeholders; an INSERT that
        names the key gets a fresh one, read off its table."""
        values = [self.rng.choice(VALUE_DOMAIN) for _ in range(sql.count("?"))]
        if sql.startswith("INSERT") and " (id, " in sql:
            table = sql.split()[2]
            top = self.database.query(f"SELECT MAX(id) FROM {table}").scalar()
            values[0] = 0 if top is None else top + 1
        return sql, tuple(values)

    def reads(self, least: int = 1) -> list[QueryInstance]:
        """Execute ``least`` to three of the run's read templates as one
        entry's render."""
        rng, collector = self.rng, self.awc.collector
        context = collector.begin("read")
        try:
            for _ in range(rng.randrange(least, 4)):
                sql = rng.choice(self.read_templates)
                self.statement.execute_query(*self.bind(sql))
        finally:
            collector.end()
        return [self.perturb(read) for read in context.reads]

    def execute_writes(
        self, statements: list[tuple[str, tuple]]
    ) -> list[QueryInstance]:
        """Execute ``statements`` as one write request; a write the
        database refuses (a duplicate key) changed nothing and is not
        recorded, as on the serving path."""
        collector = self.awc.collector
        context = collector.begin("write")
        try:
            for sql, params in statements:
                try:
                    self.statement.execute_update(sql, params)
                except IntegrityError:
                    pass
        finally:
            collector.end()
        return context.writes

    def batch(self) -> list[QueryInstance]:
        """One to three of the run's write templates, executed and
        perturbed; now and then one of them twice (the ring deduplicates
        a batch)."""
        rng = self.rng
        statements = [
            self.bind(rng.choice(self.write_templates))
            for _ in range(rng.randrange(1, 4))
        ]
        batch = [self.perturb(write) for write in self.execute_writes(statements)]
        if len(batch) > 1 and rng.random() < 0.4:
            batch.append(rng.choice(batch))
        return batch

    def _due(self, name: str) -> int:
        """Count an instance ``name`` can apply to; its ordinal if the
        perturbation is due on it (and counted as applied), else 0."""
        seen = self._eligible[name] = self._eligible[name] + 1
        due = seen % PERTURBATIONS[name] == 1
        self.perturbed[name] += due
        return seen if due else 0

    def perturb(self, instance: QueryInstance) -> QueryInstance:
        """``instance``, or it with the one of :data:`PERTURBATIONS` due."""
        image = instance.pre_image
        if not instance.template.is_write:
            if instance.witness is None or not self._due("witness off the key"):
                return instance
            # Past every key the read shows: a position no pair's
            # witness names, so the fault can only keep a doom.
            keyed = self.router.engine.key_positions(instance.template)
            past = 1 + max(position for _table, position in keyed)
            moved = enumerate(keys for _position, keys in instance.witness)
            return instance._replace(witness=tuple((past + i, k) for i, k in moved))
        if image is not None and self._due("no image"):
            return instance._replace(pre_image=None)
        if image and (seen := self._due("incomplete capture")):
            gone = sorted(image[0])[seen % len(image[0])]  # rows of one table
            return instance._replace(
                pre_image=tuple({c: v for c, v in row.items() if c != gone} for row in image)
            )
        if instance.partners and (seen := self._due("missing probe")):
            probes = list(instance.partners)
            del probes[seen % len(probes)]
            return instance._replace(witness=tuple(probes))
        return instance


@dataclass
class DifferentialResult:
    """Outcome of one ring-vs-brute-force differential run."""

    seed: int
    rounds: int
    policy: str
    n_nodes: int = 1
    catalog: bool = True
    writes_tested: int = 0
    pages_doomed: int = 0
    #: Keys doomed purely by containment closure (an entry whose own
    #: reads never matched the write); zero would leave the closure
    #: untested.
    closure_doomed: int = 0
    intersects_checks: int = 0
    #: Index effectiveness on the ring (proof the run pruned at all).
    templates_skipped: int = 0
    instances_skipped: int = 0
    pair_analyses_indexed: int = 0
    pair_analyses_brute: int = 0
    intersection_tests_indexed: int = 0
    intersection_tests_brute: int = 0
    #: Candidate templates the column-lineage rule skipped on the ring.
    templates_skipped_by_lineage: int = 0
    column_plans_built: int = 0
    #: Never-read probes: executed UPDATEs of a (table, column) no
    #: registered template's lineage read set covers.  Each must doom
    #: nothing on either side; ``never_read_doomed`` counts violations.
    never_read_probes: int = 0
    never_read_doomed: int = 0
    #: Instances the row witness / partner probes excused, per side.
    #: They need not be equal: each side stops testing an entry at its
    #: first doom, in its own template order.
    witness_skips_indexed: int = 0
    witness_skips_brute: int = 0
    partner_skips_indexed: int = 0
    partner_skips_brute: int = 0
    #: (never-excused read, probed INSERT) pairs checked for an excuse.
    never_excused_checked: int = 0
    #: How often each of :data:`PERTURBATIONS` was applied.
    perturbed: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def unmet_guards(self) -> list[str]:
        """The vacuity guards this run failed: a rule the run never
        exercised is a rule it proved nothing about.  Instance pruning
        needs a rung above COLUMN_ONLY; witnesses and probes need the
        catalog (keys and partner edges), probes ``ROW_WITNESS``."""
        witness = self.catalog and self.policy == InvalidationPolicy.ROW_WITNESS.value
        perturbed = self.perturbed
        guards = {
            "templates skipped": self.templates_skipped,
            "instances skipped": self.instances_skipped or self.policy == "column-only",
            "lineage skips": self.templates_skipped_by_lineage,
            "never-read probes": self.never_read_probes,
            "closure dooms": self.closure_doomed,
            "witness skips": not witness
            or (self.witness_skips_indexed and self.witness_skips_brute),
            "partner skips": not witness or self.partner_skips_indexed,
            "never-excused checks": not witness or self.never_excused_checked,
            "no image": perturbed.get("no image"),
            "incomplete capture": perturbed.get("incomplete capture"),
            "witness off the key": not self.catalog
            or perturbed.get("witness off the key"),
            "missing probe": not witness or perturbed.get("missing probe"),
        }
        return [name for name, held in guards.items() if not held]


def _never_read_probe(
    rng: random.Random, engine: QueryAnalysisEngine, pages: PageCache
) -> str | None:
    """An UPDATE that must doom nothing, or None: it sets a never-read
    column outside the union of the registered templates' lineage read
    sets (a registered ``SELECT *`` takes its table's tail off the menu;
    ``(t, "*")`` reads every column of ``t``, ``("?", c)`` may be any
    table's ``c``)."""
    covered: set[tuple[str, str]] = set()
    for template in pages.dependencies.read_templates():
        covered |= engine.lineage(template).read_set
    candidates = [
        (table, column)
        for table in sorted(NEVER_READ_COLUMNS)
        for column in NEVER_READ_COLUMNS[table]
        if not any(t in (table, "?") and c in ("*", column) for t, c in covered)
    ]
    if not candidates:
        return None
    table, column = rng.choice(candidates)
    return f"UPDATE {table} SET {column} = ? WHERE {rng.choice(SCHEMA[table])} = ?"


def _never_excused(
    engine: QueryAnalysisEngine, pages: PageCache, batch: list[QueryInstance]
) -> tuple[int, list[str]]:
    """How many registered :data:`NEVER_EXCUSED` reads were checked against
    a probed write of ``batch``, and those its probes would excuse (must
    be none)."""
    checked, excused = 0, []
    for sql in NEVER_EXCUSED:
        template = templateize(sql, (0,) * sql.count("?"))[0]
        for _key, read in pages.dependencies.instances_for(template):
            for write in batch:
                if write.partners is None:
                    continue
                checked += 1
                pair = engine.analyse_pair(template, write.template)
                if partners_excuse(pair, read.values, write):
                    excused.append(f"{sql} {read.values!r}")
    return checked, excused


def run_differential(
    seed: int = 0,
    rounds: int = 60,
    n_pages: int = 80,
    policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY,
    n_nodes: int = 1,
    catalog: bool = True,
    max_mismatches: int = 5,
) -> DifferentialResult:
    """Run the ring and the brute-force reference side by side.

    ``n_pages`` pages and a quarter as many ``frag://`` fragments are
    registered on both: each entry's reads are executed, fragments may
    nest in earlier fragments and pages embed fragments (containment
    edges on the ring, a reference copy for the BFS).  Each round
    executes a prospective page's reads and then a write batch, compares
    the ring's doomed set (:meth:`ClusterRouter.process_write_request`)
    with the brute-force one unioned with the reference closure, and
    ``intersects_any`` for the prospective reads on the key's owner;
    checks no :data:`NEVER_EXCUSED` read is excused; re-registers every
    doomed key from fresh executed reads; and, when one exists, executes
    a never-read probe, which must doom nothing.

    Mirror and reference edges change only at registration, never at
    doom time -- the router's own contract (a doomed entry's edges
    linger until its replacement re-registers), so a stale edge that
    re-dooms an absent key is *expected* on both sides.  ``catalog=False``
    hides the schemas from both sides' analysis.
    """
    result = DifferentialResult(seed, rounds, policy.value, n_nodes, catalog)
    with Generator(seed, policy, n_nodes, catalog) as generator:
        _run(generator, result, n_pages, max_mismatches)
    result.perturbed = generator.perturbed
    return result


def _run(
    generator: Generator, result: DifferentialResult, n_pages: int, max_mismatches: int
) -> None:
    rng, router = generator.rng, generator.router
    engine = QueryAnalysisEngine(
        catalog=Catalog.from_database(generator.database) if result.catalog else None
    )
    mirror, brute_stats = PageCache(make_policy("unbounded", None)), CacheStats()
    brute = Invalidator(
        mirror, AnalysisCache(engine), brute_stats, router.invalidation_policy,
        indexed=False,
    )
    #: Reference containment: container key -> fragment keys it embeds.
    edges: dict[str, set[str]] = {}
    fragment_keys = [f"frag://frag-{i}?v={i}" for i in range(max(1, n_pages // 4))]
    #: Insert order: fragments nest only in earlier fragments, pages in
    #: fragments, so a container follows everything it may embed.
    position = {
        key: i
        for i, key in enumerate(fragment_keys + [f"page-{i}" for i in range(n_pages)])
    }

    def embedded_for(key: str) -> tuple[str, ...]:
        if key.startswith("frag://"):
            # Only earlier fragments: the containment graph stays acyclic.
            pool = fragment_keys[: fragment_keys.index(key)]
            if not pool or rng.random() < 0.6:
                return ()
        elif rng.random() < 0.2:
            return ()
        else:
            pool = fragment_keys
        return tuple(rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1)))

    def register(keys) -> None:
        # Containers after their fragments: an insert whose embedded
        # fragment is not resident is refused (a stale insert).
        for key in sorted(keys, key=position.__getitem__):
            embedded = embedded_for(key)
            reads = generator.reads(least=0 if embedded else 1)
            router.insert_key(key, f"body of {key}", reads, fragments=embedded)
            mirror.insert(PageEntry(key, f"body of {key}", dependencies=tuple(reads)))
            edges[key] = set(embedded)

    def closure(doomed: set[str]) -> set[str]:
        containers: set[str] = set()
        frontier = list(doomed)
        while frontier:
            key = frontier.pop()
            for container, embedded in edges.items():
                if key in embedded and container not in containers | doomed:
                    containers.add(container)
                    frontier.append(container)
        return containers

    def mismatch(round_no: int, text: str) -> bool:
        result.mismatches.append(f"round {round_no}: {text}")
        return len(result.mismatches) >= max_mismatches

    # A read captures a row witness only over tables a write has reached:
    # one write to each table but ``users`` before the population, so
    # its reads of ``users`` show the witness-free path until a batch
    # writes that table.
    generator.execute_writes([
        generator.bind(f"UPDATE {table} SET {NEVER_READ_COLUMNS[table][0]} = ?")
        for table in sorted(SCHEMA)
        if table != "users"
    ])
    register(position)
    for round_no in range(result.rounds):
        prospective = generator.reads()
        batch = generator.batch()
        result.writes_tested += len(batch)
        base = brute.affected_pages(batch)
        closed = closure(base)
        expected = base | closed
        actual = router.process_write_request("/differential", batch)
        if actual != expected and mismatch(
            round_no,
            f"doomed sets differ; ring-only={sorted(actual - expected)}, "
            f"reference-only={sorted(expected - actual)}, "
            f"writes={[str(w) for w in batch]}",
        ):
            break
        result.pages_doomed += len(actual)
        result.closure_doomed += len(closed)

        owner = router.node(router.owner_name("prospective")).cache.invalidator
        verdicts = (
            owner.intersects_any(prospective, batch),
            brute.intersects_any(prospective, batch),
        )
        result.intersects_checks += 1
        if verdicts[0] != verdicts[1] and mismatch(
            round_no, f"intersects_any diverged (ring, brute = {verdicts})"
        ):
            break

        checked, excused = _never_excused(router.engine, mirror, batch)
        result.never_excused_checked += checked
        if excused and mismatch(round_no, f"partner probes excused {excused}"):
            break

        brute.process_writes(batch)
        for key in closed:
            mirror.release(key)
        register(expected)

        probe = _never_read_probe(rng, router.engine, mirror)
        if probe is not None:
            result.never_read_probes += 1
            writes = generator.execute_writes([generator.bind(probe)])
            doomed = router.process_write_request("/probe", writes)
            doomed |= brute.affected_pages(writes)
            result.never_read_doomed += len(doomed)
            if doomed and mismatch(
                round_no, f"never-read probe {probe!r} doomed {sorted(doomed)}"
            ):
                break

    ring = router.stats.snapshot()["cluster"]
    reference = brute_stats.snapshot()
    result.templates_skipped = ring["templates_skipped_by_index"]
    result.instances_skipped = ring["instances_skipped_by_index"]
    result.templates_skipped_by_lineage = ring["templates_skipped_by_lineage"]
    result.column_plans_built = ring["column_plans_built"]
    both = ("pair_analyses", "intersection_tests", "witness_skips", "partner_skips")
    for name in both:
        setattr(result, f"{name}_indexed", ring[name])
        setattr(result, f"{name}_brute", reference[name])
