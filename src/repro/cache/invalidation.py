"""Invalidation orchestration (Figure 6, lower half).

When a write request completes, each collected write instance is tested
against the read templates in the dependency table:

1. pair analysis (memoised in the analysis cache) prunes template pairs
   with no possible dependency;
2. the run-time intersection test (at the configured policy precision)
   decides, per registered (value vector, page) instance, whether the
   page must go.

The paper runs both steps against *every* template and instance per
write.  The default **indexed** path keeps identical outcomes while
doing sub-linear work:

- identical write instances in a batch are deduplicated before
  analysis (a batch of N copies of the same UPDATE dooms the same
  pages N times over);
- the dependency table's inverted table index supplies only the read
  templates sharing a table with the write -- every skipped template is
  one whose pair analysis would have answered ``possible=False``;
- the memoised column-lineage rule (:class:`~repro.cache.analysis.
  ColumnPruneRule`, built from :mod:`repro.sql.lineage`) skips the
  remaining candidates whose written columns are provably disjoint from
  the template's lineage read set -- again exactly the pairs whose
  analysis would have answered ``possible=False``, but without paying
  for the analysis;
- a pruning plan (:func:`~repro.cache.analysis.build_pruning_plan`)
  derived from the pair analysis converts the write's bound values into
  the set of read-side values it could intersect, and the per-template
  value index returns only the registrations carrying such a value --
  every skipped instance is one ``intersects`` would have rejected;
- under ``ROW_WITNESS`` every loop asks the row witness, then the
  write's partner probes, before the intersection test
  (:meth:`Invalidator._dooms`): an instance either excuses is spared,
  the same way on every path.

On a ring every node runs this protocol over its own shard, but only
the value-index probes and the instance tests depend on the shard: the
lineage skip, the pair analysis and the bound instance filter are the
same for one write and one read template on every node.  So the indexed
path splits in two (:meth:`Invalidator._verdict` and the shard walk),
and the template-level half is written to a **verdict table**
(:func:`verdict_table`) that the bus message carries: one dict per
write, read template -> ``(catalog version, verdict)``.  The first node
whose candidates include a template fills its cell; later nodes read it
and only probe.  A cell filled under an older catalog is recomputed,
never reused.  Each node still walks its *own* candidate templates under
its own lock, so a template registered while the message is being
delivered is never missed.

Pruned work is surfaced in :class:`~repro.cache.stats.CacheStats`
(``templates_skipped_by_index`` / ``instances_skipped_by_index`` /
``templates_skipped_by_lineage``).  The template-level counters --
pair analyses, lineage skips, column plans -- are counted by the node
that fills a cell, so once per ring; index skips, witness and partner
skips and intersection tests are shard work, counted per node.  The
brute-force path is kept (``indexed=False``) as the differential-test
oracle and uses no table, and ``lineage_pruning=False`` restores
equality-only pruning for the benchmark comparison.
"""

from __future__ import annotations

from typing import Sequence

from repro.cache.analysis import (
    InvalidationPolicy,
    PairAnalysis,
    QueryAnalysisEngine,
    instance_filter,
    partners_excuse,
    witness_excuses,
)
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.entry import QueryInstance
from repro.cache.page_cache import PageCache
from repro.cache.stats import CacheStats
from repro.sql.template import QueryTemplate

#: A verdict for a (write, read template) pair no instance can meet:
#: lineage-disjoint, or an impossible pair.
NEVER = "never"

#: What a node decides for one write and one read template, alike on
#: every shard: :data:`NEVER`, or the pair analysis with the write's
#: bound instance filter (:func:`~repro.cache.analysis.instance_filter`'s
#: answer; None when no rule applies).
Verdict = str | tuple[PairAnalysis, tuple[int | None, frozenset] | None]

#: One write's cells: read template -> (catalog version, verdict).
VerdictCells = dict[QueryTemplate, tuple[int, Verdict]]


def dedupe_writes(writes: Sequence[QueryInstance]) -> list[QueryInstance]:
    """Drop repeated identical write instances, preserving order.

    Two writes are identical when template text, value vector,
    pre-image and partner probes coincide -- the exact inputs of the
    instance test, so duplicates provably doom the same pages.  Only
    writes that share text and values have their images compared, by
    equality.  Unhashable bound values keep the instance as unique (no
    dedup, no behaviour change).
    """
    unique: list[QueryInstance] = []
    kept: dict[tuple, list[QueryInstance]] = {}
    for write in writes:
        try:
            same = kept.setdefault((write.template.text, tuple(write.values)), [])
        except TypeError:
            unique.append(write)
            continue
        if any(
            write.pre_image == other.pre_image and write.partners == other.partners
            for other in same
        ):
            continue
        same.append(write)
        unique.append(write)
    return unique


def verdict_table(writes) -> tuple[VerdictCells, ...]:
    """An empty verdict table for a batch of unique writes: one cell
    dict per write, in batch order."""
    return tuple({} for _ in writes)


class Invalidator:
    """Runs the write-side consistency protocol against the page cache."""

    def __init__(
        self,
        page_cache: PageCache,
        analysis_cache: AnalysisCache,
        stats: CacheStats,
        policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY,
        indexed: bool = True,
        lineage_pruning: bool = True,
    ) -> None:
        self._pages = page_cache
        self.analysis = analysis_cache
        self._stats = stats
        self.policy = policy
        #: Use the dependency-table indexes; False restores the paper's
        #: full-scan protocol (the differential-test oracle).
        self.indexed = indexed
        #: Consult the memoised column-lineage rule before pair analysis
        #: on the indexed path; False measures equality-only pruning
        #: (the benchmark's comparison leg).  Outcomes are identical
        #: either way -- the rule skips exactly the candidates whose
        #: pair analysis would answer ``possible=False``.
        self.lineage_pruning = lineage_pruning

    @property
    def engine(self) -> QueryAnalysisEngine:
        return self.analysis.engine

    def process_writes(
        self,
        writes: Sequence[QueryInstance],
        verdicts: Sequence[VerdictCells] | None = None,
    ) -> set[str]:
        """Invalidate every page affected by ``writes``; returns the keys.

        ``verdicts`` is a bus message's verdict table (module
        docstring): its writes arrive deduplicated, and every verdict
        another node already reached is read, not recomputed.  Without
        one the batch is deduplicated here and analysed afresh.

        Dooms are attributed to the (first) write template that caused
        them, feeding the per-template churn counters
        (``CacheStats.dooms_by_template``); the doomed set is identical
        to a single :meth:`affected_pages` pass over the batch.
        """
        if verdicts is None:
            writes = dedupe_writes(writes)
            verdicts = verdict_table(writes)
        doomed: set[str] = set()
        for write, cells in zip(writes, verdicts):
            affected = (
                self._affected_pages_indexed(write, cells)
                if self.indexed
                else self._affected_pages(write)
            )
            if not affected:
                continue
            removed = 0
            for key in affected - doomed:
                if self._pages.invalidate(key):
                    removed += 1
            if removed:
                self._stats.record_invalidated(
                    pages=removed, template=write.template.text
                )
            doomed |= affected
        return doomed

    def affected_pages(
        self, writes: list[QueryInstance], indexed: bool | None = None
    ) -> set[str]:
        """The page keys ``writes`` would doom (no invalidation performed).

        Pure with respect to the page cache, so the differential harness
        can run the indexed and brute-force protocols against the same
        registered population and compare the doomed sets.
        """
        use_index = self.indexed if indexed is None else indexed
        affected: set[str] = set()
        for write in dedupe_writes(writes):
            if use_index:
                affected |= self._affected_pages_indexed(write, {})
            else:
                affected |= self._affected_pages(write)
        return affected

    def _affected_pages(self, write: QueryInstance) -> set[str]:
        """Brute force: every template, every instance (the paper's loop)."""
        affected: set[str] = set()
        for read_template in self._pages.dependencies.read_templates():
            self._stats.record_pair_analysis()
            pair = self.analysis.analyse(read_template, write.template)
            if not pair.possible:
                continue
            for page_key, read in self._pages.dependencies.instances_for(
                read_template
            ):
                if page_key in affected:
                    continue
                if self._dooms(pair, read, write):
                    affected.add(page_key)
        return affected

    def _affected_pages_indexed(
        self, write: QueryInstance, cells: VerdictCells
    ) -> set[str]:
        """Index-pruned protocol: candidate templates, candidate instances.

        ``cells`` is the write's row of a verdict table; a template's
        cell is filled here when no node has reached it yet under the
        current catalog.
        """
        affected: set[str] = set()
        dependencies = self._pages.dependencies
        candidates, skipped = dependencies.candidate_templates(
            write.template.tables
        )
        pruned_instances = 0
        version = self.analysis.engine.catalog_version
        for read_template in candidates:
            cell = cells.get(read_template)
            if cell is None or cell[0] != version:
                cell = cells[read_template] = (
                    version,
                    self._verdict(read_template, write),
                )
            verdict = cell[1]
            if verdict is NEVER:
                continue
            pair, selected = verdict
            instances = None
            if selected is not None:
                position, allowed = selected
                if position is None:
                    # Literal read binding outside the allowed set: the
                    # whole template is disjoint from this write.
                    pruned_instances += dependencies.instance_count(read_template)
                    continue
                found = dependencies.instances_for_values(
                    read_template, position, allowed
                )
                if found is not None:
                    instances, pruned = found
                    pruned_instances += pruned
            if instances is None:
                # No usable rule (or unindexable template): full scan,
                # identical to the brute-force inner loop.
                instances = dependencies.instances_for(read_template)
            for page_key, read in instances:
                if page_key in affected:
                    continue
                if self._dooms(pair, read, write):
                    affected.add(page_key)
        if skipped or pruned_instances:
            self._stats.record_index_pruning(skipped, pruned_instances)
        return affected

    def _verdict(self, read_template: QueryTemplate, write: QueryInstance) -> Verdict:
        """The template-level half of the indexed protocol: the lineage
        skip, the pair analysis and the write's bound instance filter.
        Depends on no shard, so a ring computes it once per write and
        template (and counts it here, once)."""
        if self.lineage_pruning and self._lineage_skip(
            read_template, write.template.info
        ):
            return NEVER
        self._stats.record_pair_analysis()
        pair = self.analysis.analyse(read_template, write.template)
        if not pair.possible:
            return NEVER
        plan = self.analysis.plan_for(read_template, write.template, pair, self.policy)
        return pair, (instance_filter(plan, write) if plan else None)

    def intersects_any(
        self,
        reads: list[QueryInstance],
        writes: list[QueryInstance],
    ) -> bool:
        """Would any of ``writes`` invalidate a page with ``reads``?

        The same template-pair analysis + run-time intersection test as
        :meth:`process_writes`, but against a *prospective* dependency
        set -- used to reject inserting a page whose computation window
        overlapped an invalidating write (single-flight staleness
        check), since an in-flight page has no dependency-table
        registrations for the normal protocol to hit.  The indexed path
        applies the same pruning (table disjointness, per-pair value
        filter) directly to the prospective read instances.
        """
        use_index = self.indexed
        for write in dedupe_writes(writes) if use_index else writes:
            write_tables = write.template.tables if use_index else None
            write_info = (
                write.template.info
                if use_index and self.lineage_pruning
                else None
            )
            for read in reads:
                if use_index and not (read.template.tables & write_tables):
                    self._stats.record_index_pruning(templates_skipped=1)
                    continue
                if write_info is not None and self._lineage_skip(
                    read.template, write_info
                ):
                    continue
                self._stats.record_pair_analysis()
                pair = self.analysis.analyse(read.template, write.template)
                if not pair.possible:
                    continue
                if use_index and self._value_filtered(pair, read, write):
                    continue
                if self._dooms(pair, read, write):
                    return True
        return False

    def _dooms(
        self, pair: PairAnalysis, read: QueryInstance, write: QueryInstance
    ) -> bool:
        """The instance test all three loops share: under ROW_WITNESS
        the row witness first (:func:`~repro.cache.analysis.
        witness_excuses`; excusals counted in ``CacheStats.
        witness_skips``), then the write's partner probes
        (:func:`~repro.cache.analysis.partners_excuse`; ``partner_skips``),
        then the intersection test at the configured rung.  Any proof
        spares the instance; the two excuses go first because they are
        cheap and, for the instances the value index selected, the
        intersection test rarely says no."""
        if self.policy is InvalidationPolicy.ROW_WITNESS:
            if witness_excuses(pair, read.witness, write):
                self._stats.record_witness_skip()
                return False
            if partners_excuse(pair, read.values, write):
                self._stats.record_partner_skip()
                return False
        self._stats.record_intersection_test()
        return self.engine.intersects(pair, tuple(read.values), write, self.policy)

    def _lineage_skip(self, read_template, write_info) -> bool:
        """Skip a candidate whose pair analysis is doomed to say no.

        The column rule's :meth:`~repro.cache.analysis.ColumnPruneRule.
        disjoint` is the very predicate ``analyse_pair`` uses for its
        column check, so skipping here never changes the doomed set --
        it only avoids the counted pair-analysis protocol op.
        """
        rule, built = self.analysis.column_rule_for(read_template)
        if built:
            self._stats.record_column_plan()
        if rule.disjoint(write_info):
            self._stats.record_lineage_skip()
            return True
        return False

    def _value_filtered(
        self, pair, read: QueryInstance, write: QueryInstance
    ) -> bool:
        """True when the pruning plan proves ``read`` disjoint from ``write``."""
        plan = self.analysis.plan_for(
            read.template, write.template, pair, self.policy
        )
        if not plan:
            return False
        selected = instance_filter(plan, write)
        if selected is None:
            return False
        position, allowed = selected
        if position is None:
            self._stats.record_index_pruning(instances_skipped=1)
            return True
        try:
            if read.values[position] in allowed:
                return False
        except (IndexError, TypeError):
            return False
        self._stats.record_index_pruning(instances_skipped=1)
        return True
