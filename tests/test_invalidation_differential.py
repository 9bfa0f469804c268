"""Property-style differential tests: indexed invalidation is invisible.

Runs the executed differential harness (many seeds x the paper
policies, with and without the schema catalog, plus the row-witness
rung) asserting a ring's doomed sets and ``intersects_any`` verdicts
match brute force plus the reference containment closure exactly, on
one-node and 4-node rings; replays the generator's executed instances
through two rings that differ only in indexing; and seeds one bug at a
time into the ring's side to show the oracle catches each.
"""

from __future__ import annotations

import pytest

import repro.cache.invalidation as invalidation_module
import repro.cluster.router as router_module
from repro.cache.analysis import (
    ColumnPruneRule,
    InvalidationPolicy,
    QueryAnalysisEngine,
)
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.entry import PageEntry
from repro.cache.fragments import FragmentContainment
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.stats import CacheStats
from repro.cluster import ClusterRouter
from repro.harness.differential import Generator, run_differential
from repro.sql.ast_nodes import Update
from repro.sql.lineage import Catalog
from repro.sql.template import templateize
from repro.web.http import HttpRequest

POLICIES = [
    InvalidationPolicy.COLUMN_ONLY,
    InvalidationPolicy.WHERE_MATCH,
    InvalidationPolicy.EXTRA_QUERY,
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", range(4))
def test_indexed_matches_brute_force(seed, policy):
    result = run_differential(
        seed=seed, rounds=40, n_pages=60, policy=policy, catalog=False
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.pages_doomed > 0


def test_differential_run_actually_prunes():
    """Guard against the harness degenerating into all-fallback runs:
    the equivalence claim is vacuous if the indexes never prune."""
    result = run_differential(
        seed=0,
        rounds=40,
        n_pages=60,
        policy=InvalidationPolicy.EXTRA_QUERY,
        catalog=False,
    )
    assert result.ok
    assert result.templates_skipped > 0
    assert result.instances_skipped > 0
    # Pruning must show up as strictly less protocol work.
    assert result.pair_analyses_indexed < result.pair_analyses_brute


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", range(3))
def test_column_lineage_pruning_matches_brute_force(seed, policy):
    """Stars, joins, subqueries, aggregates, and writes skewed toward
    never-read bookkeeping columns, with the schema catalog on both
    sides: a lineage-pruning ring vs catalog-equipped brute force give
    identical doomed sets and intersects_any verdicts."""
    result = run_differential(seed=seed, rounds=40, n_pages=60, policy=policy)
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.pages_doomed > 0


def test_column_differential_actually_prunes_by_lineage():
    """Vacuity guards: the lineage rule must fire (skips > 0, plans
    built > 0) and the never-read probes must fire and doom nothing."""
    result = run_differential(
        seed=0, rounds=50, n_pages=80, policy=InvalidationPolicy.EXTRA_QUERY
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.templates_skipped_by_lineage > 0
    assert result.column_plans_built > 0
    assert result.never_read_probes > 0
    assert result.never_read_doomed == 0
    # Lineage pruning is protocol work saved on top of the indexes.
    assert result.pair_analyses_indexed < result.pair_analyses_brute


@pytest.mark.parametrize("seed", range(3))
def test_row_witness_matches_brute_force(seed):
    """Reads that show a keyed table's key carry the row witness the
    aspect captured; UPDATEs of shown, filtered and key columns: at
    ROW_WITNESS, identical doomed sets and intersects_any verdicts, and
    the witness really excuses on both sides."""
    result = run_differential(
        seed=seed, rounds=40, n_pages=60, policy=InvalidationPolicy.ROW_WITNESS
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.witness_skips_indexed > 0 and result.witness_skips_brute > 0
    assert result.pair_analyses_indexed < result.pair_analyses_brute


def _paper_and_row_witness(seed: int) -> tuple[int, int, CacheStats]:
    """One executed population, both rungs: every batch's doomed set at
    ROW_WITNESS must be a subset of EXTRA_QUERY's.  Returns the dooms
    ROW_WITNESS spared in batches only partner probes can spare (no
    UPDATE, the one kind a witness excuses), those it spared in batches
    only row witnesses can spare (no probed INSERT), and its
    statistics."""
    with Generator(seed, InvalidationPolicy.ROW_WITNESS) as generator:
        for _ in range(20):
            generator.batch()  # written tables: later reads carry witnesses
        pages = PageCache()
        for serial in range(60):
            reads = generator.reads(f"page-{serial}")
            pages.insert(PageEntry(f"page-{serial}", "body", dependencies=tuple(reads)))
            # The ring's templates decide which partners an INSERT probes.
            generator.router.insert_key(f"page-{serial}", "body", reads)
        catalog = Catalog.from_database(generator.database)
        stats = CacheStats()
        paper, witness = (
            Invalidator(
                pages,
                AnalysisCache(QueryAnalysisEngine(catalog=catalog)),
                statistics,
                policy,
            )
            for policy, statistics in (
                (InvalidationPolicy.EXTRA_QUERY, CacheStats()),
                (InvalidationPolicy.ROW_WITNESS, stats),
            )
        )
        by_probes = by_witnesses = 0
        for _ in range(200):
            batch = generator.batch()
            excused = witness.affected_pages(batch)
            doomed = paper.affected_pages(batch)
            assert excused <= doomed
            if not any(isinstance(w.template.statement, Update) for w in batch):
                by_probes += len(doomed - excused)
            if all(w.partners is None for w in batch):
                by_witnesses += len(doomed - excused)
    return by_probes, by_witnesses, stats


def test_row_witness_dooms_a_subset_of_the_paper_rung():
    """One population, both rungs: the witness only ever removes dooms
    the paper's rung makes, and does remove some."""
    _, spared, stats = _paper_and_row_witness(4)
    assert spared > 0 and stats.witness_skips > 0


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fragment_witness_workload_matches_oracle(n_nodes):
    """Row witnesses through the fragment tier at ROW_WITNESS: every
    shard excuses exactly what the oracle excuses."""
    result = run_differential(
        seed=2, rounds=25, n_nodes=n_nodes, policy=InvalidationPolicy.ROW_WITNESS
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.pages_doomed > 0 and result.witness_skips_indexed > 0


@pytest.mark.parametrize("seed", range(3))
def test_partner_probes_match_brute_force(seed):
    """Join reads a probe may excuse, LEFT JOIN / self-join / subquery
    reads it must never excuse; INSERTs, with and without the key,
    carrying the partner rows the aspect's probes fetched: at
    ROW_WITNESS, identical doomed sets and intersects_any verdicts, no
    never-excused read excused, and the probes really excuse."""
    result = run_differential(
        seed=seed, rounds=40, n_pages=60, policy=InvalidationPolicy.ROW_WITNESS
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.partner_skips_indexed > 0 and result.partner_skips_brute > 0


def test_partner_probes_doom_a_subset_of_the_paper_rung():
    """One population, both rungs: the probes only ever remove dooms
    the paper's rung makes, and do remove some."""
    spared, _, stats = _paper_and_row_witness(4)
    assert spared > 0 and stats.partner_skips > 0


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fragment_partner_workload_matches_oracle(n_nodes):
    """Partner probes through the fragment tier: every shard excuses
    exactly what the oracle excuses."""
    result = run_differential(
        seed=2, rounds=25, n_nodes=n_nodes, policy=InvalidationPolicy.ROW_WITNESS
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.pages_doomed > 0 and result.partner_skips_indexed > 0


def _replay_cluster(
    node_names: list[str], indexed: bool, pages, batches
) -> list[set[str]]:
    router = ClusterRouter(node_names)
    # The facade always indexes; the brute-force ring runs the paper's
    # full-scan oracle on each node's own invalidator.
    for node in router.nodes():
        node.cache.invalidator.indexed = indexed
    for uri, reads in pages:
        router.insert(HttpRequest("GET", uri, {}), f"body {uri}", reads)
    return [router.process_write_request("/write", batch) for batch in batches]


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_cluster_indexed_matches_brute_force(n_nodes):
    """Same pages, same write batches, identical ring topology: the
    per-node indexed invalidators must doom exactly the brute-force
    union at every step."""
    with Generator(7) as generator:
        pages = [(f"/page/{i}", generator.reads(f"/page/{i}")) for i in range(40)]
        batches = [generator.batch() for _ in range(20)]
    names = [f"node-{i}" for i in range(n_nodes)]
    doomed_indexed = _replay_cluster(names, True, pages, batches)
    doomed_brute = _replay_cluster(names, False, pages, batches)
    assert doomed_indexed == doomed_brute
    assert any(doomed_indexed), "workload never invalidated anything"


@pytest.mark.parametrize("n_nodes", [1, 4])
@pytest.mark.parametrize("seed", range(4))
def test_fragment_doom_matches_brute_force_closure(seed, n_nodes):
    """Fragment-granular dooming through the router (sharding, bus
    dedupe, node-local closure, cross-shard closure) must equal a
    brute-force invalidator over every entry's dependencies unioned
    with a plain BFS up a reference copy of the containment edges."""
    result = run_differential(seed=seed, rounds=30, n_nodes=n_nodes, catalog=False)
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.pages_doomed > 0
    # Vacuity guard: the runs must doom entries *through* containment,
    # not only via direct dependency matches.
    assert result.closure_doomed > 0


def test_fragment_doom_is_topology_invariant():
    """The same seed dooms the same keys on a 1-node and a 4-node ring:
    sharding must be invisible to the consistency argument."""
    single = run_differential(seed=5, rounds=25, n_nodes=1)
    quad = run_differential(seed=5, rounds=25, n_nodes=4)
    assert single.ok and quad.ok
    assert single.pages_doomed == quad.pages_doomed
    assert single.closure_doomed == quad.closure_doomed


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fragment_column_workload_matches_oracle(n_nodes):
    """The catalog-synced, lineage-pruning ring end-to-end through the
    fragment tier must doom exactly the oracle's key set."""
    result = run_differential(seed=3, rounds=25, n_nodes=n_nodes)
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.pages_doomed > 0
    assert result.closure_doomed > 0


def test_cluster_stats_aggregate_pruning_counters():
    router = ClusterRouter(["a", "b"])
    with Generator(11) as generator:
        for i in range(20):
            reads = generator.reads(f"/p/{i}")
            router.insert(HttpRequest("GET", f"/p/{i}", {}), "x", reads)
        for _ in range(10):
            router.process_write_request("/w", generator.batch())
    aggregate = router.stats.snapshot()["cluster"]
    assert aggregate["pair_analyses"] > 0
    assert (
        aggregate["templates_skipped_by_index"]
        + aggregate["instances_skipped_by_index"]
        > 0
    )
    # The summing properties agree with the snapshot aggregate.
    assert router.stats.pair_analyses == aggregate["pair_analyses"]
    assert (
        router.stats.templates_skipped_by_index
        == aggregate["templates_skipped_by_index"]
    )


def test_every_guard_holds_and_every_perturbation_fires():
    result = run_differential(seed=0, policy=InvalidationPolicy.ROW_WITNESS)
    assert result.ok, "\n".join(result.mismatches)
    assert result.unmet_guards() == []
    assert all(result.perturbed.values()), result.perturbed


def test_reads_and_writes_come_from_the_engine():
    """No invented rows: a write's image is the database's, an INSERT's
    after-image names the key the database generated, and a read's
    witness lists keys its result showed."""
    with Generator(3, InvalidationPolicy.ROW_WITNESS) as generator:
        generator.batch()
        insert = "INSERT INTO items (seller, category) VALUES (?, ?)"
        (write,) = generator.execute_writes([(insert, (1, 2))])
        stored = generator.database.query(
            "SELECT * FROM items WHERE id = ?", (write.pre_image[0]["id"],)
        )
        assert stored.dicts() == list(write.pre_image)
        context = generator.awc.collector.begin("read", "k")
        try:
            generator.statement.execute_query("SELECT id, price FROM items", ())
        finally:
            generator.awc.collector.end()
        (read,) = context.reads
        shown = generator.database.query("SELECT id FROM items", ()).rows
        assert read.witness == ((0, tuple(row[0] for row in shown)),)


# -- the oracle catches each seeded bug on the ring's side ---------------------


_instance_filter = invalidation_module.instance_filter


def _dropping_one_allowed_value(plan, write):
    found = _instance_filter(plan, write)
    if found is None or found[0] is None or not found[1]:
        return found
    position, allowed = found
    return position, frozenset(sorted(allowed, key=repr)[1:])


class _IgnoresOneReadColumn(QueryAnalysisEngine):
    """The column rule drops the first named column of the read set."""

    def column_rule(self, template):
        rule = super().column_rule(template)
        named = sorted(column for column in rule.read_set if column[1] != "*")
        if not named:
            return rule
        return ColumnPruneRule(rule.read_set - {named[0]}, rule.tables, rule.exact)


class _WitnessIgnoresFilterColumns(QueryAnalysisEngine):
    """``_witness_position`` without its assigned-filter-column check, so
    ``witness_excuses`` excuses reads whose rows the UPDATE moves."""

    def _witness_position(self, read, write_info):
        catalog = self.catalog
        if write_info.kind != "update" or catalog is None:
            return None, None
        table = write_info.write_table
        key = catalog.primary_key_of(table)
        position = dict(self.read_info(read).key_positions).get(table)
        assigned = {c for t, c in write_info.columns_written if t == table}
        if key is None or position is None or "*" in assigned or key in assigned:
            return None, None
        return position, key


class _ExcusesLeftJoins(QueryAnalysisEngine):
    """Partner edges for a LEFT JOIN read, as if it were an inner join,
    so ``partners_excuse`` accepts it."""

    def _partner_edges(self, read, write_info, catalog):
        if "LEFT JOIN" in read.text:
            inner = read.text.replace("LEFT JOIN", "JOIN")
            read = templateize(inner, (0,) * inner.count("?"))[0]
        return super()._partner_edges(read, write_info, catalog)


def _one_level(self, keys):
    return {
        container
        for key in keys
        for container in self._pages_of.get(key, ())
        if container not in keys
    }


#: name -> (owner, attribute, mutant).  The engine mutants replace the
#: ring's engine class only: the brute-force side builds its own from
#: ``repro.cache.analysis``.
MUTANTS = {
    "instance filter drops a value": (
        invalidation_module, "instance_filter", _dropping_one_allowed_value
    ),
    "column rule ignores a read column": (
        router_module, "QueryAnalysisEngine", _IgnoresOneReadColumn
    ),
    "witness ignores an assigned filter column": (
        router_module, "QueryAnalysisEngine", _WitnessIgnoresFilterColumns
    ),
    "partner probes excuse a LEFT JOIN": (
        router_module, "QueryAnalysisEngine", _ExcusesLeftJoins
    ),
    "containment closure stops after one level": (
        FragmentContainment, "containing", _one_level
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_oracle_catches_a_seeded_bug(monkeypatch, mutant):
    """Each bug, seeded on the ring's side only, turns some run of the
    CLI's default seeds and rounds into a mismatch."""
    owner, attribute, replacement = MUTANTS[mutant]
    monkeypatch.setattr(owner, attribute, replacement)
    caught = any(
        run_differential(
            seed, policy=policy, n_nodes=n_nodes, max_mismatches=1
        ).mismatches
        for policy in reversed(InvalidationPolicy)
        for n_nodes in (1, 4)
        for seed in range(3)
    )
    assert caught, f"{mutant}: no run of the default seeds and rounds noticed"
