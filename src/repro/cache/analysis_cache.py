"""Caching of template-pair analysis results (Figure 4).

"For efficiency, our system caches the results of the first component
and re-uses them while encountering the same queries again.  In
practice, there are usually a small fixed number of different query
templates, thus, the query analysis cache stabilizes very quickly."

This module wraps :class:`~repro.cache.analysis.QueryAnalysisEngine`
with a (read template, write template) -> :class:`PairAnalysis` map and
records the time series of cache size vs. requests processed, which the
Figure 4 benchmark replays.  On top of it sit the *pair cells*
(:meth:`AnalysisCache.pair_cells`): everything a write decides about one
read template that depends on the two templates alone -- the lineage
skip, the pair analysis, the pruning plan -- decided once per pair and
policy under a catalog, so a write pays one dict read per candidate.

One analysis cache serves a whole ring: the
:class:`~repro.cluster.router.ClusterRouter` builds it, with the one
engine, and every node's invalidator analyses through it, so a
template pair is analysed once per ring, not once per node.  It takes
no lock.  Each node calls it under its own store lock, so calls from
two nodes may interleave: a memo fill is idempotent (both store the
same answer), and every memo keys by the catalog version.  The Figure-4
counters (``stats``) are exact only single-threaded, as in the
discrete-event simulator that prints Figure 4; under threads two
nodes may count one miss twice or lose an increment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.analysis import (
    ColumnPruneRule,
    InvalidationPolicy,
    PairAnalysis,
    PruneRule,
    QueryAnalysisEngine,
    build_pruning_plan,
)
from repro.sql.template import QueryTemplate

#: A pair the read's column rule proves disjoint: decided without a
#: pair analysis.
LINEAGE_DISJOINT = (None, ())

#: A pair cell's verdict: :data:`LINEAGE_DISJOINT`, or the pair
#: analysis with its pruning plan.
PairVerdict = tuple[PairAnalysis | None, tuple[PruneRule, ...]]

#: One write template's row of pair cells: read template -> verdict.
PairCells = dict[QueryTemplate, PairVerdict]


@dataclass
class AnalysisCacheStats:
    """Hit/miss counters plus the growth series for Figure 4."""

    hits: int = 0
    misses: int = 0
    #: (lookups so far, distinct entries) samples, appended on each miss.
    growth: list[tuple[int, int]] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class AnalysisCache:
    """Memoises pair analysis keyed by the two template texts."""

    def __init__(self, engine: QueryAnalysisEngine) -> None:
        self.engine = engine
        # All memos additionally key by the engine's catalog version:
        # swapping the schema catalog sharpens the column analysis, and
        # a pair analysed under old schema knowledge must never be mixed
        # with a column rule built under new knowledge (or vice versa).
        self._pairs: dict[tuple[str, str, int], PairAnalysis] = {}
        self._column_rules: dict[tuple[str, int], ColumnPruneRule] = {}
        #: The pair cells, one row per (write text, policy, lineage
        #: pruning, catalog version) (:meth:`pair_cells`).
        self._cells: dict[tuple[str, str, bool, int], PairCells] = {}
        self.stats = AnalysisCacheStats()

    def analyse(self, read: QueryTemplate, write: QueryTemplate) -> PairAnalysis:
        """Pair analysis with memoisation and statistics."""
        key = (read.text, write.text, self.engine.catalog_version)
        cached = self._pairs.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        analysis = self.engine.analyse_pair(read, write)
        self._pairs[key] = analysis
        self.stats.growth.append((self.stats.lookups, len(self._pairs)))
        return analysis

    def column_rule_for(
        self, read: QueryTemplate
    ) -> tuple[ColumnPruneRule, bool]:
        """The lineage column rule for ``read``, plus whether it was new.

        The second element is True exactly once per (template, catalog
        version) in the ring (single-threaded), letting the invalidators
        count distinct column plans built without a separate bookkeeping
        structure.
        """
        key = (read.text, self.engine.catalog_version)
        cached = self._column_rules.get(key)
        if cached is not None:
            return cached, False
        rule = self.engine.column_rule(read)
        self._column_rules[key] = rule
        return rule, True

    def pair_cells(
        self,
        write: QueryTemplate,
        policy: InvalidationPolicy,
        lineage_pruning: bool = True,
    ) -> PairCells:
        """``write``'s row of *pair cells* under ``policy`` and the
        current catalog: read template -> the template-level verdict on
        the pair, which every write of ``write`` reads for every
        candidate read template.  A write looks its row up once; each
        candidate then costs one dict read, and :meth:`decide` fills a
        cell no write has read yet.  The row keys by the catalog
        version it was looked up under, so a swap starts a new row."""
        key = (write.text, policy.value, lineage_pruning, self.engine.catalog_version)
        cells = self._cells.get(key)
        if cells is None:
            cells = self._cells[key] = {}
        return cells

    def decide(
        self,
        cells: PairCells,
        read: QueryTemplate,
        write: QueryTemplate,
        policy: InvalidationPolicy,
        lineage_pruning: bool = True,
    ) -> tuple[PairVerdict, bool]:
        """Fill ``read``'s cell in ``write``'s row ``cells``
        (:meth:`pair_cells`); returns the verdict and whether this call
        built ``read``'s column rule.

        The verdict is :data:`LINEAGE_DISJOINT` when the column rule
        proves the pair disjoint (consulted only with
        ``lineage_pruning``), else the pair analysis with its pruning
        plan (empty for an impossible pair).
        """
        built = False
        verdict = None
        if lineage_pruning:
            rule, built = self.column_rule_for(read)
            if rule.disjoint(write.info):
                verdict = LINEAGE_DISJOINT
        if verdict is None:
            pair = self.analyse(read, write)
            verdict = (pair, build_pruning_plan(pair, policy))
        cells[read] = verdict
        return verdict, built

    def record_cell_reads(self, count: int) -> None:
        """``count`` pair-cell reads that each stood in for an analysis
        lookup: Figure 4 counts them as the hits they replaced."""
        self.stats.hits += count

    @property
    def entry_count(self) -> int:
        return len(self._pairs)

    @property
    def cell_count(self) -> int:
        """Pair cells filled (each catalog version's count apart)."""
        return sum(map(len, self._cells.values()))

    def clear(self) -> None:
        self._pairs.clear()
        self._column_rules.clear()
        self._cells.clear()
