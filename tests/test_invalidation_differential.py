"""Property-style differential tests: indexed invalidation is invisible.

Runs the randomized differential harness (many seeds x the three
paper policies, plus the row-witness mix at its own rung) asserting the indexed protocol's doomed sets and
``intersects_any`` verdicts match brute force exactly, then repeats the
equivalence end-to-end through single-node and 4-node clusters, where
the write path additionally crosses the router's dedupe and the
invalidation bus.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.analysis import InvalidationPolicy, QueryAnalysisEngine
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.entry import PageEntry
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.stats import CacheStats
from repro.cluster import ClusterRouter
from repro.harness.differential import (
    WORKLOADS,
    random_read,
    random_write,
    run_column_differential,
    run_differential,
    run_fragment_differential,
    run_partner_differential,
    run_witness_differential,
)
from repro.web.http import HttpRequest

POLICIES = [
    InvalidationPolicy.COLUMN_ONLY,
    InvalidationPolicy.WHERE_MATCH,
    InvalidationPolicy.EXTRA_QUERY,
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", range(4))
def test_indexed_matches_brute_force(seed, policy):
    result = run_differential(seed=seed, rounds=40, n_pages=60, policy=policy)
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.pages_doomed > 0


def test_differential_run_actually_prunes():
    """Guard against the harness degenerating into all-fallback runs:
    the equivalence claim is vacuous if the indexes never prune."""
    result = run_differential(
        seed=0, rounds=40, n_pages=60, policy=InvalidationPolicy.EXTRA_QUERY
    )
    assert result.ok
    assert result.templates_skipped > 0
    assert result.instances_skipped > 0
    # Pruning must show up as strictly less protocol work.
    assert result.pair_analyses_indexed < result.pair_analyses_brute


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", range(3))
def test_column_lineage_pruning_matches_brute_force(seed, policy):
    """The column workload (stars, joins, subqueries, aggregates, and
    writes skewed toward never-read bookkeeping columns) through a
    lineage-pruning indexed invalidator vs catalog-equipped brute
    force: identical doomed sets and intersects_any verdicts."""
    result = run_column_differential(
        seed=seed, rounds=40, n_pages=60, policy=policy
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.pages_doomed > 0


def test_column_differential_actually_prunes_by_lineage():
    """Vacuity guards: the lineage rule must fire (skips > 0, plans
    built > 0) and the never-read probes must fire and doom nothing."""
    result = run_column_differential(
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
    """The witness mix (reads projecting a table's key with row
    witnesses; UPDATEs of displayed-only columns, of filter columns and
    of the key) at ROW_WITNESS: identical doomed sets and
    intersects_any verdicts, and the witness really excuses."""
    result = run_witness_differential(seed=seed, rounds=40, n_pages=60)
    assert result.ok, "\n".join(result.mismatches)
    assert result.witness_skips_indexed > 0 and result.witness_skips_brute > 0
    assert result.pair_analyses_indexed < result.pair_analyses_brute


def test_row_witness_dooms_a_subset_of_the_paper_rung():
    """One population, both rungs: the witness only ever removes dooms
    the paper's rung makes, and does remove some."""
    mix = WORKLOADS["witness"]
    rng = random.Random(4)
    pages = PageCache()
    for serial in range(60):
        reads = tuple(mix.reader(rng) for _ in range(rng.randrange(1, 4)))
        pages.insert(PageEntry(f"page-{serial}", "body", dependencies=reads))
    paper, witness = (
        Invalidator(
            pages,
            AnalysisCache(QueryAnalysisEngine(catalog=mix.catalog)),
            CacheStats(),
            policy,
        )
        for policy in (InvalidationPolicy.EXTRA_QUERY, InvalidationPolicy.ROW_WITNESS)
    )
    spared = 0
    for _ in range(200):
        batch = [mix.writer(rng) for _ in range(rng.randrange(1, 3))]
        excused = witness.affected_pages(batch)
        doomed = paper.affected_pages(batch)
        assert excused <= doomed
        spared += len(doomed - excused)
    assert spared > 0


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fragment_witness_workload_matches_oracle(n_nodes):
    """The witness mix through the fragment tier at ROW_WITNESS: every
    shard excuses exactly what the oracle excuses."""
    result = run_fragment_differential(
        seed=2, rounds=25, n_nodes=n_nodes, workload="witness"
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.entries_doomed > 0 and result.witness_skips > 0


@pytest.mark.parametrize("seed", range(3))
def test_partner_probes_match_brute_force(seed):
    """The partner mix (join reads a probe may excuse, LEFT JOIN /
    self-join / subquery reads it must never excuse; INSERTs with fresh
    keys carrying the partner rows of the generator's tables) at
    ROW_WITNESS: identical doomed sets and intersects_any verdicts, no
    never-excused read excused, and the probes really excuse."""
    result = run_partner_differential(seed=seed, rounds=40, n_pages=60)
    assert result.ok, "\n".join(result.mismatches)
    assert result.partner_skips_indexed > 0 and result.partner_skips_brute > 0


def test_partner_probes_doom_a_subset_of_the_paper_rung():
    """One population, both rungs: the probes only ever remove dooms
    the paper's rung makes, and do remove some."""
    mix = WORKLOADS["partner"]
    rng = random.Random(4)
    reader, writer = mix.generators(rng)
    pages = PageCache()
    for serial in range(60):
        reads = tuple(reader(rng) for _ in range(rng.randrange(1, 4)))
        pages.insert(PageEntry(f"page-{serial}", "body", dependencies=reads))
    paper, probed = (
        Invalidator(
            pages,
            AnalysisCache(QueryAnalysisEngine(catalog=mix.catalog)),
            CacheStats(),
            policy,
        )
        for policy in (InvalidationPolicy.EXTRA_QUERY, InvalidationPolicy.ROW_WITNESS)
    )
    spared = 0
    for _ in range(200):
        batch = [writer(rng) for _ in range(rng.randrange(1, 3))]
        excused = probed.affected_pages(batch)
        doomed = paper.affected_pages(batch)
        assert excused <= doomed
        spared += len(doomed - excused)
    assert spared > 0


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fragment_partner_workload_matches_oracle(n_nodes):
    """The partner mix through the fragment tier: every shard excuses
    exactly what the oracle excuses."""
    result = run_fragment_differential(
        seed=2, rounds=25, n_nodes=n_nodes, workload="partner"
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.entries_doomed > 0 and result.partner_skips > 0


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
    rng = random.Random(7)
    pages = [
        (f"/page/{i}", [random_read(rng) for _ in range(rng.randrange(1, 4))])
        for i in range(40)
    ]
    batches = [
        [random_write(rng) for _ in range(rng.randrange(1, 4))]
        for _ in range(20)
    ]
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
    result = run_fragment_differential(seed=seed, rounds=30, n_nodes=n_nodes)
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.entries_doomed > 0
    # Vacuity guard: the runs must doom entries *through* containment,
    # not only via direct dependency matches.
    assert result.closure_doomed > 0


def test_fragment_doom_is_topology_invariant():
    """The same seed dooms the same keys on a 1-node and a 4-node ring:
    sharding must be invisible to the consistency argument."""
    single = run_fragment_differential(seed=5, rounds=25, n_nodes=1)
    quad = run_fragment_differential(seed=5, rounds=25, n_nodes=4)
    assert single.ok and quad.ok
    assert single.entries_doomed == quad.entries_doomed
    assert single.closure_doomed == quad.closure_doomed


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fragment_column_workload_matches_oracle(n_nodes):
    """The column workload end-to-end through the fragment tier: the
    catalog-synced, lineage-pruning ring must doom exactly the oracle's
    key set."""
    result = run_fragment_differential(
        seed=3, rounds=25, n_nodes=n_nodes, workload="column"
    )
    assert result.ok, "\n".join(result.mismatches)
    assert result.writes_tested > 0 and result.entries_doomed > 0
    assert result.closure_doomed > 0


def test_cluster_stats_aggregate_pruning_counters():
    rng = random.Random(11)
    router = ClusterRouter(["a", "b"])
    for i in range(20):
        reads = [random_read(rng) for _ in range(2)]
        router.insert(HttpRequest("GET", f"/p/{i}", {}), "x", reads)
    for _ in range(10):
        router.process_write_request("/w", [random_write(rng)])
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
