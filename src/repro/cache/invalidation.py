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
- each candidate costs one dict read: the **pair cell** (:meth:`~repro.
  cache.analysis_cache.AnalysisCache.pair_cells`) holds everything that
  depends on the two templates alone, decided once per (read template,
  write template, policy, catalog version) -- :data:`~repro.cache.
  analysis_cache.LINEAGE_DISJOINT` when the memoised column-lineage
  rule (:class:`~repro.cache.analysis.ColumnPruneRule`) proves the
  written columns disjoint from the template's lineage read set, else
  the pair analysis with its pruning plan (:func:`~repro.cache.
  analysis.build_pruning_plan`); a disjoint or impossible pair is
  :data:`NEVER`;
- the write then binds its own side once per read template
  (:class:`DoomPlan`): the plan turns its values into the set of
  read-side values it could intersect, and the per-template value index
  returns only the registrations carrying such a value (every skipped
  instance is one ``intersects`` would have rejected); under
  ``ROW_WITNESS`` it also binds the keys of the rows it wrote and the
  partner rows its probes found;
- when an INSERT's probes found no partner row on some edge, the probes
  excuse every instance of the template: none is visited, and each is
  counted as the partner skip the walk would have counted;
- the walk (:meth:`Invalidator._walk`) tests each remaining instance:
  under ``ROW_WITNESS`` a set lookup in the written keys (the row
  witness), then the bound partner rows, may spare it; the rest take
  the intersection test -- the same way on every path.

On a ring every node runs this protocol over its own shard, but only
the value-index probes and the instance tests depend on the shard: the
pair cell and the write's bound side are the same for one write and one
read template on every node.  Pair cells live in the ring's one
analysis cache, so a second write of a template decides nothing again;
the bound :class:`DoomPlan` is written to a **verdict table**
(:func:`verdict_table`) that the bus message carries: one dict per
write, read template -> ``(catalog version, verdict)``.  The first node
whose candidates include a template fills its cell; later nodes read it
and only probe.  A cell filled under an older catalog is recomputed,
never reused.  Each node still walks its *own* candidate templates under
its own lock, so a template registered while the message is being
delivered is never missed.  Candidates come from each shard's table
index on every write; nothing keys by the registered template set.

Pruned work is surfaced in :class:`~repro.cache.stats.CacheStats`
(``templates_skipped_by_index`` / ``instances_skipped_by_index`` /
``templates_skipped_by_lineage``), recorded in one call per write
(:class:`~repro.cache.stats.WalkTally`).  The template-level counters
-- pair analyses and Figure 4's analysis-cache lookups, one per consult
of a pair cell, lineage skips, column plans -- are counted by the node
that binds a write to a template, so once per ring; index skips,
witness and partner skips and intersection tests are shard work,
counted per instance, per node.  The brute-force path is kept
(``indexed=False``) as the differential-test oracle: it uses no table
and no pair cell and tests every instance in full.
``lineage_pruning=False`` restores equality-only pruning for the
benchmark comparison.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.cache.analysis import (
    InvalidationPolicy,
    PairAnalysis,
    ProbedEdge,
    PruneRule,
    QueryAnalysisEngine,
    instance_filter,
    partners_spare,
    probed_partners,
    witness_spares,
    written_keys,
)
from repro.cache.analysis_cache import LINEAGE_DISJOINT, AnalysisCache, PairCells
from repro.cache.dependency import Registration
from repro.cache.entry import QueryInstance
from repro.cache.page_cache import PageCache
from repro.cache.stats import CacheStats, WalkTally
from repro.sql.template import QueryTemplate

#: A verdict for a (write, read template) pair no instance can meet:
#: lineage-disjoint, or an impossible pair.
NEVER = "never"


class DoomPlan(NamedTuple):
    """One write bound to one read template it may doom: the write's
    side of every instance test, decided once per write and template
    and alike on every shard."""

    pair: PairAnalysis
    #: The write's bound instance filter (:func:`~repro.cache.analysis.
    #: instance_filter`'s answer; None when no rule applies).
    selected: tuple[int | None, frozenset] | None
    #: ``ROW_WITNESS``: the keys of the rows an UPDATE touched, when the
    #: pair admits a row witness (:func:`~repro.cache.analysis.
    #: written_keys`); else None.
    written: frozenset | None
    #: ``ROW_WITNESS``: an INSERT's probed partner edges
    #: (:func:`~repro.cache.analysis.probed_partners`); else empty.
    partners: tuple[ProbedEdge, ...]
    #: Some probed edge found no partner row: the probes excuse every
    #: instance of the template (each binds all of its template's
    #: placeholders, so every binding resolves), so none is visited.
    excused: bool


#: What a node decides for one write and one read template, alike on
#: every shard: :data:`NEVER`, or the bound :class:`DoomPlan`.
Verdict = str | DoomPlan

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
    if len(writes) < 2:
        return list(writes)
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
        """Brute force: every template, every instance (the paper's loop),
        each instance tested in full."""
        affected: set[str] = set()
        tally = WalkTally()
        dependencies = self._pages.dependencies
        for read_template in dependencies.read_templates():
            tally.pair_analyses += 1
            pair = self.analysis.analyse(read_template, write.template)
            if pair.possible:
                plan = self._bind(pair, (), write)
                self._walk(plan, dependencies.instances_for(read_template), affected, write, tally)
        self._record(tally)
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
        tally = WalkTally()
        candidates, tally.templates_skipped = dependencies.candidate_templates(
            write.template.tables
        )
        version = self.analysis.engine.catalog_version
        pair_cells = None
        for read_template in candidates:
            cell = cells.get(read_template)
            if cell is None or cell[0] != version:
                if pair_cells is None:
                    pair_cells = self._pair_cells(write)
                cell = cells[read_template] = (
                    version,
                    self._verdict(read_template, write, pair_cells, tally),
                )
            plan = cell[1]
            if plan is NEVER:
                continue
            instances = None
            if plan.selected is not None:
                position, allowed = plan.selected
                if position is None:
                    # Literal read binding outside the allowed set: the
                    # whole template is disjoint from this write.
                    tally.instances_skipped += dependencies.instance_count(read_template)
                    continue
                found = dependencies.instances_for_values(
                    read_template, position, allowed
                )
                if found is not None:
                    instances, pruned = found
                    tally.instances_skipped += pruned
            if plan.excused:
                # Every instance the walk would visit is a partner skip.
                tally.partner_skips += (
                    dependencies.instance_count(read_template)
                    - dependencies.registrations_on(read_template, affected)
                    if instances is None
                    else sum(key not in affected for key, _read in instances)
                )
                continue
            if instances is None:
                # No usable rule (or unindexable template): full scan,
                # identical to the brute-force inner loop.
                instances = dependencies.instances_for(read_template)
            if instances:
                self._walk(plan, instances, affected, write, tally)
        self._record(tally)
        return affected

    def _pair_cells(self, write: QueryInstance) -> PairCells:
        """``write``'s row of the ring's pair cells (:meth:`~repro.cache.
        analysis_cache.AnalysisCache.pair_cells`)."""
        return self.analysis.pair_cells(write.template, self.policy, self.lineage_pruning)

    def _verdict(
        self,
        read_template: QueryTemplate,
        write: QueryInstance,
        pair_cells: PairCells,
        tally: WalkTally,
    ) -> Verdict:
        """The template-level half of the indexed protocol: the pair
        cell, bound to ``write``.  Depends on no shard, so a ring
        computes it once per write and template (and counts it here,
        once): a lineage skip, or a pair analysis."""
        verdict = pair_cells.get(read_template)
        if verdict is None:
            verdict, built = self.analysis.decide(
                pair_cells, read_template, write.template, self.policy, self.lineage_pruning
            )
            tally.column_plans += built
        elif verdict is not LINEAGE_DISJOINT:
            tally.cell_reads += 1
        if verdict is LINEAGE_DISJOINT:
            tally.lineage_skips += 1
            return NEVER
        tally.pair_analyses += 1
        pair, plan = verdict
        if not pair.possible:
            return NEVER
        return self._bind(pair, plan, write)

    def _bind(
        self, pair: PairAnalysis, plan: tuple[PruneRule, ...], write: QueryInstance
    ) -> DoomPlan:
        """``write``'s side of the instance tests against one read
        template: the instance filter ``plan`` yields for it and, under
        ``ROW_WITNESS``, the keys it wrote and the partner rows it
        probed."""
        selected = instance_filter(plan, write) if plan else None
        written, partners, excused = None, (), False
        if self.policy is InvalidationPolicy.ROW_WITNESS:
            if pair.witness is not None:
                written = written_keys(pair, write)
            if pair.partners:
                partners = probed_partners(pair, write)
                excused = any(not rows for _bindings, rows in partners)
        # tuple.__new__: one is built per write and candidate template,
        # and the named tuple's own __new__ is a Python function.
        return tuple.__new__(DoomPlan, (pair, selected, written, partners, excused))

    def _walk(
        self,
        plan: DoomPlan,
        instances: list[Registration],
        affected: set[str],
        write: QueryInstance,
        tally: WalkTally,
    ) -> None:
        """The instance test every path shares, over ``instances`` in
        order: a page already doomed is not visited again; under
        ``ROW_WITNESS`` the row witness, then the write's partner
        probes, may spare an instance; the rest take the intersection
        test at the configured rung and join ``affected`` when it says
        yes."""
        pair, _selected, written, partners, _excused = plan
        position, policy = pair.witness, self.policy
        intersects = self.engine.intersects
        witness_skips = partner_skips = tests = 0
        for page_key, read in instances:
            if page_key in affected:
                continue
            if written is not None and witness_spares(position, written, read.witness):
                witness_skips += 1
            elif partners and partners_spare(partners, read.values):
                partner_skips += 1
            else:
                tests += 1
                if intersects(pair, read.values, write, policy):
                    affected.add(page_key)
        tally.witness_skips += witness_skips
        tally.partner_skips += partner_skips
        tally.intersection_tests += tests

    def _record(self, tally: WalkTally) -> None:
        """One statistics call per write: the node's counters, and the
        pair-cell reads Figure 4 counts as analysis-cache hits."""
        self._stats.record_walk(tally)
        if tally.cell_reads:
            self.analysis.record_cell_reads(tally.cell_reads)

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
        reads the same pair cells and applies the same pruning (table
        disjointness, the bound instance filter) directly to the
        prospective read instances.
        """
        tally = WalkTally()
        try:
            return self._intersects_any(reads, writes, tally)
        finally:
            self._record(tally)

    def _intersects_any(
        self, reads: list[QueryInstance], writes: list[QueryInstance], tally: WalkTally
    ) -> bool:
        for write in dedupe_writes(writes) if self.indexed else writes:
            pair_cells = self._pair_cells(write) if self.indexed else None
            for read in reads:
                if self.indexed:
                    if not (read.template.tables & write.template.tables):
                        tally.templates_skipped += 1
                        continue
                    plan = self._verdict(read.template, write, pair_cells, tally)
                    if plan is NEVER:
                        continue
                    if self._filtered(plan.selected, read):
                        tally.instances_skipped += 1
                        continue
                else:
                    tally.pair_analyses += 1
                    pair = self.analysis.analyse(read.template, write.template)
                    if not pair.possible:
                        continue
                    plan = self._bind(pair, (), write)
                affected: set[str] = set()
                self._walk(plan, [("", read)], affected, write, tally)
                if affected:
                    return True
        return False

    @staticmethod
    def _filtered(selected: tuple[int | None, frozenset] | None, read: QueryInstance) -> bool:
        """True when the bound instance filter proves ``read`` disjoint."""
        if selected is None:
            return False
        position, allowed = selected
        if position is None:
            return True
        try:
            return read.values[position] not in allowed
        except (IndexError, TypeError):
            return False
