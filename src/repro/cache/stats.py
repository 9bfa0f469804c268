"""Cache statistics: global and per-request-type counters.

Feeds the per-request hit/miss breakdowns of Figures 16 and 17,
including the paper's miss taxonomy: *cold* misses (never cached),
*invalidation* misses (previously cached, evicted by a write),
*capacity* misses (evicted by the replacement policy -- only with a
bounded cache), *expired* misses (TTL window lapsed), plus uncacheable
requests and semantic hits (TTL-window hits, Figure 17's third bar).

A plain structure: the ``record_*`` methods take no lock.  Its owner
(the :class:`~repro.cache.api.Cache` facade, or the cluster router for
its front-end ledger) calls them only under the owner's lock, which is
what keeps the counters exact when the container serves requests from a
thread pool (the paper's Tomcat deployment); :meth:`CacheStats.snapshot`
takes that same lock.  Coalesced serves -- waiters of a single-flight
computation handed the freshly inserted page -- are tracked separately
from hits because the waiter already recorded its miss at lookup time;
``coalesced_hits`` explains the gap between misses and servlet
executions.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field


@dataclass
class RequestTypeStats:
    """Counters for one request type (URI)."""

    uri: str
    hits: int = 0
    semantic_hits: int = 0
    misses_cold: int = 0
    misses_invalidation: int = 0
    misses_capacity: int = 0
    misses_expired: int = 0
    uncacheable: int = 0
    writes: int = 0
    #: Misses served from another request's in-flight computation.
    coalesced: int = 0

    @property
    def misses(self) -> int:
        return (
            self.misses_cold
            + self.misses_invalidation
            + self.misses_capacity
            + self.misses_expired
        )

    @property
    def reads(self) -> int:
        return self.hits + self.semantic_hits + self.misses + self.uncacheable

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def hit_rate(self) -> float:
        if not self.reads:
            return 0.0
        return (self.hits + self.semantic_hits) / self.reads


@dataclass
class CacheStats:
    """Global counters plus the per-type breakdown."""

    lookups: int = 0
    hits: int = 0
    semantic_hits: int = 0
    misses_cold: int = 0
    misses_invalidation: int = 0
    misses_capacity: int = 0
    misses_expired: int = 0
    uncacheable: int = 0
    inserts: int = 0
    evictions: int = 0
    #: Pages removed by consistency invalidation.
    invalidated_pages: int = 0
    #: Write requests processed by the invalidator.
    write_requests: int = 0
    #: Template-pair analyses consulted by the invalidator (cached or
    #: not): the per-write template work the table index prunes.
    pair_analyses: int = 0
    #: Instance-level intersection tests executed.
    intersection_tests: int = 0
    #: Read templates skipped by the inverted table index (disjoint
    #: table sets -- no pair analysis performed).
    templates_skipped_by_index: int = 0
    #: Registered instances skipped by the per-template value index
    #: (provably disjoint -- no intersection test performed).
    instances_skipped_by_index: int = 0
    #: Candidate read templates skipped by the column-lineage rule
    #: (write columns provably disjoint from the template's lineage
    #: read set -- no pair analysis performed).
    templates_skipped_by_lineage: int = 0
    #: Distinct (template, catalog) column-disjointness rules this
    #: node materialised in the analysis cache (the ring's, shared: a
    #: rule another node built first is not counted again).
    column_plans_built: int = 0
    #: Pre-images the JDBC aspect captured under the EXTRA_QUERY policy:
    #: the paper's extra query per UPDATE/DELETE.  The write's own plan
    #: returns its before-image, taken atomically with the write, so no
    #: second statement reaches the database; the simulator still prices
    #: each capture as one query examining ``extra_query_rows`` rows.
    extra_queries: int = 0
    #: Rows the captured writes examined: what the paper's extra SELECT,
    #: with the write's WHERE over the same table, would have examined.
    extra_query_rows: int = 0
    #: Instances their row witness excused (``ROW_WITNESS`` only): the
    #: write touched no row the read showed, and no column it filters
    #: on.  No intersection test is run for them.
    witness_skips: int = 0
    #: Instances an INSERT's partner probes excused (``ROW_WITNESS``
    #: only): no row the new row can join satisfies the read.
    partner_skips: int = 0
    #: Partner probes the JDBC aspect ran: one SELECT of the partner
    #: table per probe-plan edge per inserted row, each also counted in
    #: ``extra_queries``.
    partner_probes: int = 0
    #: Misses served from a concurrent single-flight computation
    #: (dogpile suppression): N concurrent misses, one execution.
    coalesced_hits: int = 0
    #: Inserts skipped because an invalidating write landed while the
    #: page was being computed (the check-then-insert race, detected).
    stale_inserts: int = 0
    #: Inserts skipped because the rendered body contained a hole
    #: (per-request state): the page assembled from fragments instead.
    hole_skips: int = 0
    #: Consistency dooms attributed to the write template that caused
    #: them (which UPDATE/INSERT statements churn the cache).
    dooms_by_template: dict[str, int] = field(default_factory=dict)
    by_type: dict[str, RequestTypeStats] = field(default_factory=dict)
    #: The owner's lock, set by the owner: :meth:`snapshot` holds it so
    #: the read is atomic against the ``record_*`` calls the owner makes
    #: under it.  A stats object nobody shares needs none.
    guard: contextlib.AbstractContextManager = field(
        default=contextlib.nullcontext(), init=False, repr=False, compare=False
    )

    def type_stats(self, uri: str) -> RequestTypeStats:
        stats = self.by_type.get(uri)
        if stats is None:
            stats = self.by_type[uri] = RequestTypeStats(uri=uri)
        return stats

    @property
    def misses(self) -> int:
        return (
            self.misses_cold
            + self.misses_invalidation
            + self.misses_capacity
            + self.misses_expired
        )

    @property
    def hit_rate(self) -> float:
        """Hits (including semantic) over cacheable read lookups."""
        cacheable = self.hits + self.semantic_hits + self.misses
        if not cacheable:
            return 0.0
        return (self.hits + self.semantic_hits) / cacheable

    def record_hit(self, uri: str, semantic: bool) -> None:
        self.lookups += 1
        if semantic:
            self.semantic_hits += 1
            self.type_stats(uri).semantic_hits += 1
        else:
            self.hits += 1
            self.type_stats(uri).hits += 1

    def record_miss(self, uri: str, reason: str) -> None:
        self.lookups += 1
        stats = self.type_stats(uri)
        if reason == "cold":
            self.misses_cold += 1
            stats.misses_cold += 1
        elif reason == "invalidation":
            self.misses_invalidation += 1
            stats.misses_invalidation += 1
        elif reason == "capacity":
            self.misses_capacity += 1
            stats.misses_capacity += 1
        elif reason == "expired":
            self.misses_expired += 1
            stats.misses_expired += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown miss reason {reason!r}")

    def record_uncacheable(self, uri: str) -> None:
        self.lookups += 1
        self.uncacheable += 1
        self.type_stats(uri).uncacheable += 1

    def record_write(self, uri: str) -> None:
        self.write_requests += 1
        self.type_stats(uri).writes += 1

    def record_insert(self, evictions: int) -> None:
        """One stored insert and the capacity victims it evicted."""
        self.inserts += 1
        self.evictions += evictions

    def record_invalidated(self, pages: int = 1, template: str | None = None) -> None:
        self.invalidated_pages += pages
        if template is not None:
            self.dooms_by_template[template] = (
                self.dooms_by_template.get(template, 0) + pages
            )

    def record_intersection_test(self) -> None:
        self.intersection_tests += 1

    def record_pair_analysis(self, count: int = 1) -> None:
        self.pair_analyses += count

    def record_index_pruning(
        self, templates_skipped: int = 0, instances_skipped: int = 0
    ) -> None:
        self.templates_skipped_by_index += templates_skipped
        self.instances_skipped_by_index += instances_skipped

    def record_lineage_skip(self, count: int = 1) -> None:
        self.templates_skipped_by_lineage += count

    def record_column_plan(self, count: int = 1) -> None:
        self.column_plans_built += count

    def record_extra_query(self, rows: int, probe: bool = False) -> None:
        self.extra_queries += 1
        self.extra_query_rows += rows
        if probe:
            self.partner_probes += 1

    def record_witness_skip(self) -> None:
        self.witness_skips += 1

    def record_partner_skip(self) -> None:
        self.partner_skips += 1

    def record_coalesced(self, uri: str) -> None:
        self.coalesced_hits += 1
        self.type_stats(uri).coalesced += 1

    def record_stale_insert(self) -> None:
        self.stale_inserts += 1

    def record_hole_skip(self) -> None:
        self.hole_skips += 1

    def snapshot(self) -> dict:
        """One atomic read of every counter (plus derived rates).

        Consumers that need a consistent view across counters (the
        cluster aggregator, reporting, the CLI) must use this instead
        of reading fields one by one: under concurrent serving,
        field-by-field reads can observe a lookup whose hit/miss
        classification has not landed yet.
        """
        with self.guard:
            return {
                "lookups": self.lookups,
                "hits": self.hits,
                "semantic_hits": self.semantic_hits,
                "misses": self.misses,
                "misses_cold": self.misses_cold,
                "misses_invalidation": self.misses_invalidation,
                "misses_capacity": self.misses_capacity,
                "misses_expired": self.misses_expired,
                "uncacheable": self.uncacheable,
                "inserts": self.inserts,
                "evictions": self.evictions,
                "invalidated_pages": self.invalidated_pages,
                "write_requests": self.write_requests,
                "pair_analyses": self.pair_analyses,
                "intersection_tests": self.intersection_tests,
                "templates_skipped_by_index": self.templates_skipped_by_index,
                "instances_skipped_by_index": self.instances_skipped_by_index,
                "templates_skipped_by_lineage": self.templates_skipped_by_lineage,
                "column_plans_built": self.column_plans_built,
                "extra_queries": self.extra_queries,
                "extra_query_rows": self.extra_query_rows,
                "witness_skips": self.witness_skips,
                "partner_skips": self.partner_skips,
                "partner_probes": self.partner_probes,
                "coalesced_hits": self.coalesced_hits,
                "stale_inserts": self.stale_inserts,
                "hole_skips": self.hole_skips,
                "dooms_by_template": dict(self.dooms_by_template),
                "hit_rate": self.hit_rate,
                "by_type": {
                    uri: {
                        "hits": ts.hits,
                        "semantic_hits": ts.semantic_hits,
                        "misses": ts.misses,
                        "uncacheable": ts.uncacheable,
                        "writes": ts.writes,
                        "coalesced": ts.coalesced,
                    }
                    for uri, ts in self.by_type.items()
                },
            }
