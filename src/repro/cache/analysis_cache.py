"""Caching of template-pair analysis results (Figure 4).

"For efficiency, our system caches the results of the first component
and re-uses them while encountering the same queries again.  In
practice, there are usually a small fixed number of different query
templates, thus, the query analysis cache stabilizes very quickly."

This module wraps :class:`~repro.cache.analysis.QueryAnalysisEngine`
with a (read template, write template) -> :class:`PairAnalysis` map and
records the time series of cache size vs. requests processed, which the
Figure 4 benchmark replays.

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
        # Pruning plans derived from pair analyses, keyed by (read text,
        # write text, policy).  Plans are pure functions of the pair
        # analysis, so they are memoised alongside it rather than
        # recomputed by every write.
        self._plans: dict[tuple[str, str, str, int], tuple[PruneRule, ...]] = {}
        self._column_rules: dict[tuple[str, int], ColumnPruneRule] = {}
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

    def plan_for(
        self,
        read: QueryTemplate,
        write: QueryTemplate,
        pair: PairAnalysis,
        policy: InvalidationPolicy,
    ) -> tuple[PruneRule, ...]:
        """Memoised pruning plan for an already-analysed pair.

        Takes the pair analysis as an argument (rather than calling
        :meth:`analyse` itself) so plan lookups never inflate the
        Figure 4 hit/miss counters.
        """
        key = (read.text, write.text, policy.value, self.engine.catalog_version)
        plan = self._plans.get(key)
        if plan is None:
            plan = build_pruning_plan(pair, policy)
            self._plans[key] = plan
        return plan

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

    @property
    def entry_count(self) -> int:
        return len(self._pairs)

    def clear(self) -> None:
        self._pairs.clear()
        self._plans.clear()
        self._column_rules.clear()
