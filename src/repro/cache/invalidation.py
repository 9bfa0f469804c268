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
- each candidate's verdict is its **pair cell** (:meth:`~repro.cache.
  analysis_cache.AnalysisCache.pair_cells`), which holds everything that
  depends on the two templates alone, decided once per (read template,
  write template, policy, catalog version) -- :data:`~repro.cache.
  analysis_cache.LINEAGE_DISJOINT` when the memoised column-lineage
  rule (:class:`~repro.cache.analysis.ColumnPruneRule`) proves the
  written columns disjoint from the template's lineage read set, else
  the pair analysis with its pruning plan (:func:`~repro.cache.
  analysis.build_pruning_plan`);
- a shard keeps one **doom program** per write template
  (:class:`DoomProgram`): its candidates' verdicts, the live ones (a
  possible pair) in table-index order, and the template-level counters
  each candidate contributes.  It is current while the stamp of the
  write's tables (:meth:`~repro.cache.dependency.DependencyTable.stamp`)
  and the catalog version stand still, so a steady template set decides
  nothing per write, and a shard with no candidate costs one statistics
  call;
- a write binds its own side once (:class:`WriteBinding`): a pruning
  rule's allowed set depends on the rule's source, column and write or
  SET binding, not on the read template, so each distinct one is
  resolved once per write (:func:`instance_filter`), as are, under
  ``ROW_WITNESS``, the keys of the rows it wrote per witness key and
  the partner rows its probes found per edge.  The per-template value
  index then returns only the registrations carrying an allowed value
  (every skipped instance is one ``intersects`` would have rejected);
- when an INSERT's probes found no partner row on some edge, the probes
  excuse every instance of the template: none is visited, and each is
  counted as the partner skip the walk would have counted;
- the walk (:meth:`Invalidator._walk`) tests each remaining instance:
  under ``ROW_WITNESS`` a set test of the written keys against the
  read's row witness, then the bound partner rows, may spare it; the
  rest take the intersection test -- the same way on every path.

On a ring every node runs this protocol over its own shard, under its
own lock, from its own program, so a template registered while a
message is being delivered is never missed.  What does not depend on
the shard is shared: pair cells live in the ring's one analysis cache,
and a write's :class:`WriteBinding` rides the bus message, so the bound
side is computed once per write whichever node needs it first.  The
binding also records which read templates the write has been judged
against, under which catalog: the template-level counters -- pair
analyses and Figure 4's analysis-cache lookups, one per consult of a
pair cell, lineage skips, column plans -- are counted by the first node
whose candidates include a template, so once per ring; index skips,
witness and partner skips and intersection tests are shard work,
counted per instance, per node.

Pruned work is surfaced in :class:`~repro.cache.stats.CacheStats`
(``templates_skipped_by_index`` / ``instances_skipped_by_index`` /
``templates_skipped_by_lineage``), recorded in one call per write
(:class:`~repro.cache.stats.WalkTally`).  The brute-force path is kept
(``indexed=False``) as the differential-test oracle: it uses no table,
no pair cell, no program and no binding, and tests every instance in
full.  ``lineage_pruning=False`` restores equality-only pruning for the
benchmark comparison.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.cache.analysis import (
    InvalidationPolicy,
    PairAnalysis,
    ProbedEdge,
    QueryAnalysisEngine,
    partners_spare,
    probed_rows,
    written_keys,
)
from repro.cache.analysis_cache import (
    LINEAGE_DISJOINT,
    AnalysisCache,
    PairCells,
    PairVerdict,
    SidedPlan,
)
from repro.cache.dependency import Registration
from repro.cache.entry import QueryInstance
from repro.cache.page_cache import PageCache
from repro.cache.stats import CacheStats, WalkTally
from repro.sql.template import QueryTemplate

#: Not bound yet (a memo's ``None`` is an answer).
_UNBOUND = object()

#: Nothing: what a shard with no candidate dooms, what no node has
#: judged yet.
_NOTHING: frozenset = frozenset()

#: A write's bound side of one pair: the keys it wrote, the partner rows
#: it probed, and whether some probed edge found none (:meth:`WriteBinding.side`).
Side = tuple[frozenset | None, tuple[ProbedEdge, ...], bool]
_UNBOUND_SIDE: Side = (None, (), False)


class WriteBinding:
    """One write's side of the instance tests, bound once per write and
    shared by every read template and every node (the bus message
    carries it).  Each memo fills on first use:

    - ``allowed``: a pruning rule's write side (its id in the ring's
      analysis cache, :data:`~repro.cache.analysis_cache.SidedPlan`) ->
      the read values the write could intersect, or None;
    - ``written``: a witness key -> the keys of the rows the write
      touched (:func:`~repro.cache.analysis.written_keys`), or None;
    - ``partners``: a partner edge's probe -> the partner rows found
      (:func:`~repro.cache.analysis.probed_rows`), or None.

    ``judged`` holds the read templates a node has counted the write's
    template-level work for, under catalog version ``judged_under``
    (module docstring).
    """

    __slots__ = ("write", "allowed", "written", "partners", "judged", "judged_under")

    def __init__(self, write: QueryInstance) -> None:
        self.write = write
        self.allowed: dict[int, frozenset | None] = {}
        self.written: dict[str, frozenset | None] = {}
        self.partners: dict[tuple[str, str, str], tuple[dict, ...] | None] = {}
        self.judged: frozenset[QueryTemplate] = _NOTHING
        self.judged_under = -1

    def side(self, pair: PairAnalysis) -> Side:
        """The write's side of ``pair`` under ``ROW_WITNESS``: the keys of
        the rows it touched when the pair admits a witness, each partner
        edge every inserted row was probed for with the partner rows
        found (as dicts), and whether one of those found no row at all
        -- which excuses every read of the pair."""
        write, written = self.write, None
        if pair.witness is not None:
            written = self.written.get(pair.witness_key, _UNBOUND)
            if written is _UNBOUND:
                written = self.written[pair.witness_key] = written_keys(pair, write)
        if not pair.partners or write.pre_image is None or write.partners is None:
            return written, (), False
        memo, probed, excused = self.partners, [], False
        for edge in pair.partners:
            probe = (edge.column, edge.table, edge.partner_column)
            rows = memo.get(probe, _UNBOUND)
            if rows is _UNBOUND:
                rows = memo[probe] = probed_rows(edge, write)
            if rows is not None:
                probed.append((edge.bindings, rows))
                excused = excused or not rows
        return written, tuple(probed), excused


def instance_filter(
    plan: SidedPlan, binding: WriteBinding
) -> tuple[int | None, frozenset] | None:
    """Resolve ``plan`` against one write into an instance filter, each
    rule's allowed set read from (or filled into) ``binding``.

    Returns:

    - ``None`` -- no rule applies to this write; scan every instance;
    - ``(position, allowed)`` -- only instances whose value-vector entry
      at ``position`` is in ``allowed`` can intersect; the rest are
      provably disjoint and may be skipped unexamined;
    - ``(None, frozenset())`` -- the read side pins the column to a
      *literal* outside the allowed set, so every instance of the
      template is disjoint: skip the template wholesale.
    """
    allowed_sets = binding.allowed
    for side, rule in plan:
        allowed = allowed_sets.get(side, _UNBOUND)
        if allowed is _UNBOUND:
            allowed = allowed_sets[side] = rule.allowed_values(binding.write)
        if allowed is None:
            continue
        read_binding = rule.read_binding
        position = read_binding.value_index
        if position is None:
            # Literal read binding: one in/out decision for the whole
            # template rather than a per-instance discrimination.
            try:
                pinned = read_binding.literal in allowed
            except TypeError:
                continue
            if pinned:
                continue  # this rule cannot prune; maybe the next can
            return None, frozenset()
        return position, allowed
    return None


def dedupe_writes(writes: Sequence[QueryInstance]) -> list[QueryInstance]:
    """Drop repeated identical write instances, preserving order.

    Two writes are identical when template text, value vector,
    pre-image and partner probes coincide -- the exact inputs of the
    instance test, so duplicates provably doom the same pages.  Only
    writes that share text and values have their images compared, by
    equality.  Unhashable bound values keep the instance as unique (no
    dedup, no behaviour change).
    """
    if len(writes) < 2 or len({write.template for write in writes}) == len(writes):
        return list(writes)  # no two share a template: none repeats
    unique: list[QueryInstance] = []
    kept: dict[tuple, list[QueryInstance]] = {}
    for write in writes:
        try:
            same = kept.setdefault((write.template, tuple(write.values)), [])
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


class DoomProgram(NamedTuple):
    """A write template's candidates on one shard, decided: what every
    write of the template does before it probes (module docstring)."""

    #: (stamp of the write's tables, catalog version) it was built under.
    key: tuple[int, int]
    #: The live candidates, in table-index order: (read template, pair
    #: analysis, sided pruning plan, whether the write binds a side of
    #: the pair -- under ``ROW_WITNESS``, a witness or partner edges).
    steps: tuple[tuple[QueryTemplate, PairAnalysis, SidedPlan, bool], ...]
    #: Every candidate.  A write counts each as a pair analysis that
    #: reads its cell, or as a lineage skip when it is in ``disjoint``.
    templates: frozenset[QueryTemplate]
    disjoint: frozenset[QueryTemplate]


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
        #: The instance test (the engine is the analysis cache's, fixed).
        self._intersects = analysis_cache.engine.intersects
        #: Write template text -> its doom program on this shard.
        self._programs: dict[str, DoomProgram] = {}
        #: Programs built (tests and ``make profile`` read it).
        self.programs_built = 0

    @property
    def engine(self) -> QueryAnalysisEngine:
        return self.analysis.engine

    def process_writes(
        self,
        writes: Sequence[QueryInstance],
        bindings: Sequence[WriteBinding] | None = None,
    ) -> set[str]:
        """Invalidate every page affected by ``writes``; returns the keys.

        ``bindings`` are a bus message's (module docstring): its writes
        arrive deduplicated, and every bound value another node already
        computed is read, not recomputed.  Without them the batch is
        deduplicated and bound here.

        Dooms are attributed to the (first) write template that caused
        them, feeding the per-template churn counters
        (``CacheStats.dooms_by_template``); the doomed set is identical
        to a single :meth:`affected_pages` pass over the batch.
        """
        if bindings is None:
            writes = dedupe_writes(writes)
            bindings = tuple(map(WriteBinding, writes))
        doomed: set[str] = set()
        for write, binding in zip(writes, bindings):
            affected = (
                self._affected_pages_indexed(write, binding)
                if self.indexed
                else self._affected_pages(write)
            )
            if not affected:
                continue
            removed = 0
            for key in affected - doomed if doomed else affected:
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
                affected |= self._affected_pages_indexed(write, WriteBinding(write))
            else:
                affected |= self._affected_pages(write)
        return affected

    def _affected_pages(self, write: QueryInstance) -> set[str]:
        """Brute force: every template, every instance (the paper's loop),
        each instance tested in full."""
        affected: set[str] = set()
        tally = WalkTally()
        dependencies = self._pages.dependencies
        binding, row_witness = WriteBinding(write), self.policy is InvalidationPolicy.ROW_WITNESS
        for read_template in dependencies.read_templates():
            tally.pair_analyses += 1
            pair = self.analysis.analyse(read_template, write.template)
            if pair.possible:
                written, partners, _excused = binding.side(pair) if row_witness else _UNBOUND_SIDE
                self._walk(
                    pair, written, partners, dependencies.instances_for(read_template),
                    affected, write, tally,
                )
        self._record(tally)
        return affected

    def _affected_pages_indexed(
        self, write: QueryInstance, binding: WriteBinding
    ) -> set[str] | frozenset[str]:
        """Index-pruned protocol: this shard's doom program for the
        write's template, its live candidates' candidate instances."""
        dependencies = self._pages.dependencies
        template = write.template
        stamp, registered = dependencies.census(template.tables)
        version = self.analysis.engine.catalog_version
        judged = binding.judged if binding.judged_under == version else _NOTHING
        program = self._programs.get(template.text)
        tally = None
        if program is None or program.key != (stamp, version):
            # Built as this write judges it: each template no node has
            # judged the write against is counted as it is decided.
            tally = WalkTally()
            program = self._build(template, (stamp, version), judged, tally)
        templates = program.templates
        if not templates:
            # Nothing shares a table with the write: one counter moves
            # (this node's, under its lock), and nothing is bound.
            self._stats.templates_skipped_by_index += registered
            return _NOTHING
        if tally is None:
            tally = WalkTally()
            fresh = templates - judged if judged else templates
            tally.lineage_skips = lineage = len(fresh & program.disjoint)
            tally.pair_analyses = tally.cell_reads = len(fresh) - lineage
        binding.judged_under = version
        binding.judged = judged | templates if judged else templates
        affected: set[str] = set()
        instances_skipped = partner_skips = 0
        for read_template, pair, plan, bound in program.steps:
            instances = None
            if plan:
                selected = instance_filter(plan, binding)
                if selected is not None:
                    position, allowed = selected
                    if position is None:
                        # Literal read binding outside the allowed set:
                        # the whole template is disjoint from this write.
                        instances_skipped += dependencies.instance_count(read_template)
                        continue
                    found = dependencies.instances_for_values(
                        read_template, position, allowed
                    )
                    if found is not None:
                        instances, pruned = found
                        instances_skipped += pruned
            written, partners, excused = binding.side(pair) if bound else _UNBOUND_SIDE
            if excused:
                # Some probed edge found no partner row: every instance
                # the walk would visit is a partner skip, none listed.
                if instances is None:
                    partner_skips += dependencies.instance_count(read_template) - (
                        dependencies.registrations_on(read_template, affected)
                        if affected
                        else 0
                    )
                else:
                    partner_skips += (
                        sum(key not in affected for key, _read in instances)
                        if affected
                        else len(instances)
                    )
                continue
            if instances is None:
                # No usable rule (or unindexable template): full scan,
                # identical to the brute-force inner loop.
                instances = dependencies.instances_for(read_template)
            if instances:
                self._walk(pair, written, partners, instances, affected, write, tally)
        tally.templates_skipped = registered - len(templates)
        tally.instances_skipped = instances_skipped
        tally.partner_skips += partner_skips
        self._stats.record_walk(tally)  # :meth:`_record`, inline
        if tally.cell_reads:
            self.analysis.record_cell_reads(tally.cell_reads)
        return affected

    def _build(
        self,
        template: QueryTemplate,
        key: tuple[int, int],
        judged: frozenset[QueryTemplate],
        tally: WalkTally,
    ) -> DoomProgram:
        """Build (and keep) this shard's doom program for ``template``,
        counting into ``tally`` each candidate the write has not been
        judged against (a cell decided now counts its decision and the
        column plan it built; one read, a cell read)."""
        candidates, _skipped = self._pages.dependencies.candidate_templates(template.tables)
        cells = self.analysis.pair_cells(template, self.policy, self.lineage_pruning)
        row_witness = self.policy is InvalidationPolicy.ROW_WITNESS
        steps, disjoint = [], []
        for read in candidates:
            verdict = cells.get(read) if read in judged else None
            if verdict is None:
                verdict = self._verdict(read, template, cells, tally)
            if verdict is LINEAGE_DISJOINT:
                disjoint.append(read)
                continue
            pair, plan = verdict
            if pair.possible:
                bound = row_witness and (pair.witness is not None or bool(pair.partners))
                steps.append((read, pair, plan, bound))
        program = DoomProgram(key, tuple(steps), frozenset(candidates), frozenset(disjoint))
        self._programs[template.text] = program
        self.programs_built += 1
        return program

    def _verdict(
        self,
        read_template: QueryTemplate,
        write_template: QueryTemplate,
        pair_cells: PairCells,
        tally: WalkTally,
    ) -> PairVerdict:
        """One consult of a pair cell, deciding it if no write has, and
        counted: a lineage skip, or a pair analysis (a cell read too,
        unless decided now)."""
        verdict = pair_cells.get(read_template)
        if verdict is None:
            verdict, built = self.analysis.decide(
                pair_cells, read_template, write_template, self.policy, self.lineage_pruning
            )
            tally.column_plans += built
        elif verdict is not LINEAGE_DISJOINT:
            tally.cell_reads += 1
        if verdict is LINEAGE_DISJOINT:
            tally.lineage_skips += 1
        else:
            tally.pair_analyses += 1
        return verdict

    def _walk(
        self,
        pair: PairAnalysis,
        written: frozenset | None,
        partners: tuple[ProbedEdge, ...],
        instances: list[Registration],
        affected: set[str],
        write: QueryInstance,
        tally: WalkTally,
    ) -> None:
        """The instance test every path shares, over ``instances`` in
        order: a page already doomed is not visited again; under
        ``ROW_WITNESS`` the row witness -- the read showed keys at the
        pair's witness position, none of them ``written`` -- then the
        write's partner rows may spare an instance; the rest take the
        intersection test at the configured rung and join ``affected``
        when it says yes."""
        position, policy, intersects = pair.witness, self.policy, self._intersects
        witness_skips = partner_skips = tests = 0
        for page_key, read in instances:
            if page_key in affected:
                continue
            if written is not None:
                witness = read.witness
                if witness is not None:
                    for captured, keys in witness:
                        if captured == position:
                            break
                    else:
                        keys = None
                    if keys is not None and written.isdisjoint(keys):
                        witness_skips += 1
                        continue
            if partners and partners_spare(partners, read.values):
                partner_skips += 1
                continue
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
        row_witness = self.policy is InvalidationPolicy.ROW_WITNESS
        for write in dedupe_writes(writes) if self.indexed else writes:
            binding = WriteBinding(write)
            if self.indexed:
                pair_cells = self.analysis.pair_cells(
                    write.template, self.policy, self.lineage_pruning
                )
            for read in reads:
                if self.indexed:
                    if not (read.template.tables & write.template.tables):
                        tally.templates_skipped += 1
                        continue
                    verdict = self._verdict(read.template, write.template, pair_cells, tally)
                    if verdict is LINEAGE_DISJOINT or not verdict[0].possible:
                        continue
                    pair, plan = verdict
                    if plan and self._filtered(instance_filter(plan, binding), read):
                        tally.instances_skipped += 1
                        continue
                else:
                    tally.pair_analyses += 1
                    pair = self.analysis.analyse(read.template, write.template)
                    if not pair.possible:
                        continue
                written, partners, _excused = binding.side(pair) if row_witness else _UNBOUND_SIDE
                affected: set[str] = set()
                self._walk(pair, written, partners, [("", read)], affected, write, tally)
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
