"""The query analysis engine (Section 3.2).

Determines whether a write query invalidates the cached pages built from
a read query.  Analysis has two components, mirroring the paper:

1. **Template-pair analysis** (static, cacheable): do the read and write
   templates share tables and columns at all?  If not, no instance of
   the write can ever affect an instance of the read.  The result also
   records *which* columns carry equality bindings on both sides, which
   feeds the run-time test.

2. **Instance intersection test** (run-time): given the concrete value
   vectors, do the specific rows written intersect the specific rows
   read?  Precision increases across the three policies:

   - :attr:`InvalidationPolicy.COLUMN_ONLY` -- invalidate whenever the
     templates may depend (policy 1 in the paper; many false positives);
   - :attr:`InvalidationPolicy.WHERE_MATCH` -- additionally prove
     non-intersection when both queries pin a common column to different
     values (policy 2);
   - :attr:`InvalidationPolicy.EXTRA_QUERY` -- the *AC-extraQuery*
     strategy: when the write does not mention a column the read pins,
     consult the affected rows themselves (captured as a pre-image by an
     extra query against the backend) to decide (policy 3; the policy
     the paper evaluates);
   - :attr:`InvalidationPolicy.ROW_WITNESS` -- AC-extraQuery plus a
     *row witness*: a read that projects a table's primary key
     remembers the keys its result showed, and an UPDATE that assigns
     only columns the read displays (none it filters, joins, groups or
     orders on, and not the key) is disjoint from it unless it touched
     one of those rows (:func:`witness_excuses`; beyond the paper).
     Under the same rung an INSERT carries *partner probes*: for a
     read joining the new row's table to a partner table, the partner
     rows the new row can join, fetched at write time; a read none of
     them can satisfy is spared (:func:`partners_excuse`).

   Every policy is *sound* (never proves non-intersection wrongly); the
   refinements only remove false invalidations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.cache.entry import QueryInstance
from repro.sql.analysis_info import EqualityBinding, StatementInfo, extract_info
from repro.sql.lineage import Catalog, LineageInfo, compute_lineage
from repro.sql.template import QueryTemplate


class InvalidationPolicy(enum.Enum):
    """The three invalidation precision levels of Section 3.2, plus the
    row-witness rung above them."""

    COLUMN_ONLY = "column-only"
    WHERE_MATCH = "where-match"
    EXTRA_QUERY = "extra-query"  # the paper's AC-extraQuery strategy
    ROW_WITNESS = "row-witness"  # AC-extraQuery + the rows a read showed

    @property
    def pre_images(self) -> bool:
        """Does this rung capture and consult write pre-images?"""
        return self in (InvalidationPolicy.EXTRA_QUERY, InvalidationPolicy.ROW_WITNESS)


@dataclass(frozen=True)
class ColumnCheck:
    """Run-time check on one shared column.

    ``read_binding`` pins the column on the read side.  On the write
    side the value comes from ``write_binding`` when present, otherwise
    (EXTRA_QUERY and ROW_WITNESS) from the write instance's pre-image rows.
    ``column_is_written`` flags UPDATE SET columns, whose value changes
    make equality pruning unsound except against the SET value itself.
    """

    table: str
    column: str
    read_binding: EqualityBinding
    write_binding: EqualityBinding | None
    set_binding: EqualityBinding | None
    column_is_written: bool


@dataclass(frozen=True)
class PartnerEdge:
    """One way an inserted row of T reaches a join read: ``T.column =
    U.partner_column``, U being ``table``, plus the read's equality
    bindings on U (:meth:`QueryAnalysisEngine._partner_edges`)."""

    column: str
    table: str
    partner_column: str
    bindings: tuple[EqualityBinding, ...] = ()

    @property
    def probe(self) -> tuple[str, str, str]:
        """``(column, table, partner_column)``: what the write must
        probe for this edge (:func:`probe_plan`)."""
        return self.column, self.table, self.partner_column


@dataclass(frozen=True)
class PairAnalysis:
    """Static analysis result for one (read template, write template) pair."""

    possible: bool
    checks: tuple[ColumnCheck, ...] = ()
    #: True when the read's WHERE is conjunctive equalities, a
    #: precondition for any instance-level pruning.
    read_conjunctive: bool = True
    write_conjunctive: bool = True
    write_kind: str = ""
    #: The read's output position of the written table's primary key
    #: when the pair admits a row witness (:meth:`QueryAnalysisEngine.
    #: _witness_position`), else None; ``witness_key`` names that key.
    witness: int | None = None
    witness_key: str | None = None
    #: For an INSERT into T and a join read: the edges through which a
    #: partner probe can excuse the pair (:func:`partners_excuse`).
    partners: tuple[PartnerEdge, ...] = ()


@dataclass(frozen=True)
class ColumnPruneRule:
    """The column dimension of pair analysis, packaged for the index path.

    ``read_set`` is the template's lineage read set (see
    :mod:`repro.sql.lineage`): every base-table column the cached result
    can observe.  :meth:`disjoint` answers, for one write, exactly the
    question :meth:`QueryAnalysisEngine.analyse_pair` answers with its
    column check -- so an invalidator that skips a candidate template on
    ``disjoint(...) == True`` skips precisely the pairs whose analysis
    would have come back ``possible=False``, keeping the indexed doomed
    set bit-identical to brute force while avoiding the pair-analysis
    work entirely.
    """

    read_set: frozenset[tuple[str, str]]
    tables: frozenset[str]
    exact: bool = False

    @cached_property
    def _read_columns(self) -> dict[str, frozenset[str]]:
        """Per table, the columns of the read set that may be its own
        (a ``("?", col)`` spill may be any table's)."""
        return {
            table: frozenset(
                column for t, column in self.read_set if t == table or t == "?"
            )
            for table in self.tables
        }

    def disjoint(self, write_info: StatementInfo) -> bool:
        """Can this write provably not affect the read? (policy-1 dual)

        Mirrors the historical ``_columns_overlap`` table-by-table walk:
        a ``("?", col)`` spill matches the column on every shared table
        and a ``"*"`` on either side defeats the proof, so the answer
        can only be True when disjointness is certain.  An INSERT or a
        DELETE is never disjoint from a read of its table: it adds or
        removes whole rows, so it writes every column -- the generated
        key and the columns an INSERT leaves out included, which its
        ``columns_written`` does not list -- and a read that projects
        none of them (``MAX(o_id)``, ``SELECT 1``) still sees the row
        count change.  The instance test decides instead.
        """
        if (
            write_info.kind in ("insert", "delete")
            and write_info.write_table in self.tables
        ):
            return False
        for table in self.tables & write_info.tables:
            read_columns = self._read_columns[table]
            write_columns = {
                column
                for t, column in write_info.columns_written
                if t == table
            }
            if not read_columns or not write_columns:
                continue
            if "*" in read_columns or "*" in write_columns:
                return False
            if read_columns & write_columns:
                return False
        return True


class QueryAnalysisEngine:
    """Performs pair analysis and run-time intersection tests.

    ``catalog`` is an optional :class:`~repro.sql.lineage.Catalog`
    sharpening column lineage (``SELECT *`` expansion, ambiguous-column
    resolution); without one, lineage degrades to exactly the column
    facts the engine has always used.  ``catalog_version`` moves on
    every :meth:`set_catalog` so memos -- the engine's own and the
    analysis cache's -- key their entries by the schema knowledge they
    were computed under.  A memo reads the version before it computes,
    so what it stores was computed under that catalog or a newer one.

    One engine serves a whole ring: every node analyses through it,
    each under its own lock, and the router swaps its catalog.  It
    takes no lock: memo fills are idempotent (two nodes filling one key
    store equal answers), and the version-keyed memos make a swap safe.
    """

    def __init__(self, catalog: Catalog | None = None) -> None:
        # Memos keyed by (template text(s), catalog version).
        self._lineage_cache: dict[tuple[str, int], LineageInfo] = {}
        self._column_rule_cache: dict[tuple[str, int], ColumnPruneRule] = {}
        self._info_cache: dict[tuple[str, int], StatementInfo] = {}
        self._partner_cache: dict[tuple[str, str, int], tuple[PartnerEdge, ...]] = {}
        #: (catalog, its version), read as one pair: a memo fill that
        #: finishes after :meth:`set_catalog` lands under the old
        #: version, where no lookup under the new catalog looks.
        self._state: tuple[Catalog | None, int] = (catalog, 0 if catalog is None else 1)

    # -- static info -------------------------------------------------------------

    @property
    def catalog(self) -> Catalog | None:
        return self._state[0]

    @property
    def catalog_version(self) -> int:
        return self._state[1]

    def set_catalog(self, catalog: Catalog | None) -> None:
        """Swap the schema catalog, retiring catalog-derived memos.
        Callers serialise swaps (the ring's router swaps under its
        lock), so every swap takes a new, higher version."""
        self._state = (catalog, self._state[1] + 1)
        self._lineage_cache.clear()
        self._column_rule_cache.clear()
        self._info_cache.clear()
        self._partner_cache.clear()

    def read_info(self, template: QueryTemplate) -> StatementInfo:
        """``template``'s static facts under the current catalog (the
        template's own ``info`` is the catalog-free one)."""
        catalog, version = self._state
        key = (template.text, version)
        cached = self._info_cache.get(key)
        if cached is None:
            cached = extract_info(template.statement, catalog)
            self._info_cache[key] = cached
        return cached

    def key_positions(self, template: QueryTemplate) -> tuple[tuple[str, int], ...]:
        """Where a read projects each table's primary key, if a row
        witness is defined for it (empty otherwise).

        Read by the JDBC aspect outside the facade lock: a position
        memoised under a catalog about to be replaced only decides which
        result columns are captured.  Whether a captured column is a
        key is decided again, under the lock, by the pair analysis.
        """
        return self.read_info(template).key_positions

    def lineage(self, template: QueryTemplate) -> LineageInfo:
        """Column lineage for ``template`` under the current catalog."""
        catalog, version = self._state
        key = (template.text, version)
        cached = self._lineage_cache.get(key)
        if cached is None:
            cached = compute_lineage(template.statement, catalog)
            self._lineage_cache[key] = cached
        return cached

    def column_rule(self, template: QueryTemplate) -> ColumnPruneRule:
        """The memoised column-disjointness rule for a read template."""
        key = (template.text, self.catalog_version)
        cached = self._column_rule_cache.get(key)
        if cached is None:
            lineage = self.lineage(template)
            cached = ColumnPruneRule(
                read_set=lineage.read_set,
                tables=lineage.tables,
                exact=lineage.exact,
            )
            self._column_rule_cache[key] = cached
        return cached

    # -- component 1: template-pair analysis ----------------------------------------

    def analyse_pair(
        self, read: QueryTemplate, write: QueryTemplate
    ) -> PairAnalysis:
        """Determine possible dependency between two templates.

        A dependency exists when the write's written columns intersect
        the read's used columns on a shared table (the paper's policy-1
        column check).  The returned analysis also pre-computes the
        per-column run-time checks for policies 2 and 3.
        """
        read_info = read.info
        write_info = write.info
        shared_tables = read_info.tables & write_info.tables
        if not shared_tables:
            return PairAnalysis(possible=False)
        # The column check is the ColumnPruneRule's disjointness test so
        # that an invalidator consulting the rule directly (the lineage
        # skip) and one running the full pair analysis always agree.
        if self.column_rule(read).disjoint(write_info):
            return PairAnalysis(possible=False)

        checks: list[ColumnCheck] = []
        write_table = write_info.write_table or ""
        if write_table in read_info.tables:
            set_columns = {
                column
                for table, column in write_info.columns_written
                if table == write_table
            }
            for binding in read_info.equality_bindings:
                if binding.table != write_table and binding.table != "?":
                    continue
                table = write_table
                column = binding.column
                write_binding = _where_binding(write_info, table, column)
                set_binding = _set_binding(write_info, table, column)
                checks.append(
                    ColumnCheck(
                        table=table,
                        column=column,
                        read_binding=binding,
                        write_binding=write_binding,
                        set_binding=set_binding,
                        column_is_written=(
                            column in set_columns or "*" in set_columns
                        ),
                    )
                )
        witness, witness_key = self._witness_position(read, write_info)
        return PairAnalysis(
            possible=True,
            checks=tuple(checks),
            read_conjunctive=read_info.where_is_conjunctive_equality,
            write_conjunctive=write_info.where_is_conjunctive_equality,
            write_kind=write_info.kind,
            witness=witness,
            witness_key=witness_key,
            partners=self.partner_edges(read, write),
        )

    def partner_edges(
        self, read: QueryTemplate, write: QueryTemplate
    ) -> tuple[PartnerEdge, ...]:
        """:meth:`_partner_edges`, memoised per template pair under the
        current catalog."""
        catalog, version = self._state
        key = (read.text, write.text, version)
        edges = self._partner_cache.get(key)
        if edges is None:
            edges = self._partner_edges(read, write.info, catalog)
            self._partner_cache[key] = edges
        return edges

    def _witness_position(
        self, read: QueryTemplate, write_info: StatementInfo
    ) -> tuple[int, str] | tuple[None, None]:
        """The read's output position of the written table's key, and
        the key's name, when a row witness can excuse this pair; else
        ``(None, None)``.

        It can when the write is an UPDATE of a table T whose key the
        read projects (:func:`~repro.sql.analysis_info._key_positions`
        says which reads qualify) and it assigns neither the key nor any
        column of T the read filters, joins, groups or orders on.  Then
        the rows the read returns, and their order, stay as they were;
        only the displayed values of rows the update touched can change.
        """
        catalog = self.catalog
        if write_info.kind != "update" or catalog is None:
            return None, None
        table = write_info.write_table
        key = catalog.primary_key_of(table)
        info = self.read_info(read)
        position = dict(info.key_positions).get(table)
        if key is None or position is None:
            return None, None
        assigned = {c for t, c in write_info.columns_written if t == table}
        if "*" in assigned or key in assigned:
            return None, None
        if assigned & {c for t, c in info.filter_columns if t == table}:
            return None, None
        return position, key

    def _partner_edges(
        self, read: QueryTemplate, write_info: StatementInfo, catalog: Catalog | None
    ) -> tuple[PartnerEdge, ...]:
        """The join edges through which a partner probe can excuse an
        INSERT into T from ``read``; empty when there are none.

        The read must be a join with :class:`~repro.sql.analysis_info.
        JoinFacts` (conjunctive equalities in WHERE and ON, inner or
        comma joins, no subquery) that binds T exactly once.  Then a
        new row x of T adds a row to the result only together
        with a row p of each partner U, and for an equality ``T.a =
        U.b`` of the read, p has ``p.b = x.a`` and satisfies every
        equality the read puts on U.  So if no U row with ``b = x.a``
        satisfies them, x adds nothing; and when x adds no row, nothing
        the read returns changes, whatever it aggregates, orders or
        limits.  An edge counts when both its columns resolve to a table
        (no ``"?"`` spill), U too is bound once (its bindings are that
        binding's), and either the read binds a column of U or ``a`` is
        T's primary key: a key the database just generated has no
        partners yet, so an empty probe is the proof.  Any other edge
        would probe for rows that almost always exist.
        """
        if write_info.kind != "insert":
            return ()
        table = write_info.write_table
        joins = self.read_info(read).joins
        if joins is None or table not in joins.once:
            return ()
        key = None if catalog is None else catalog.primary_key_of(table)
        edges: list[PartnerEdge] = []
        for left, right in joins.equalities:
            for (mine, column), (partner, partner_column) in (
                (left, right),
                (right, left),
            ):
                if mine != table or partner in (table, "?"):
                    continue
                if partner not in joins.once:
                    continue
                bindings = tuple(b for b in joins.bindings if b.table == partner)
                if bindings or column == key:
                    edges.append(
                        PartnerEdge(column, partner, partner_column, bindings)
                    )
        return tuple(edges)

    # -- component 2: instance intersection test ------------------------------------

    def intersects(
        self,
        pair: PairAnalysis,
        read_values: tuple[object, ...],
        write: QueryInstance,
        policy: InvalidationPolicy,
    ) -> bool:
        """True when the write instance may affect the read instance.

        Conservative: returns True unless non-intersection is *proved*.
        """
        if not pair.possible:
            return False
        if policy is InvalidationPolicy.COLUMN_ONLY:
            return True
        if not pair.read_conjunctive:
            return True  # cannot reason about the read's row set
        for check in pair.checks:
            if self._check_proves_disjoint(check, pair, read_values, write, policy):
                return False
        return True

    def _check_proves_disjoint(
        self,
        check: ColumnCheck,
        pair: PairAnalysis,
        read_values: tuple[object, ...],
        write: QueryInstance,
        policy: InvalidationPolicy,
    ) -> bool:
        """Can this column check prove the row sets are disjoint?"""
        read_value = check.read_binding.resolve(read_values)

        if pair.write_kind == "insert":
            # The read needs column == read_value on its rows, so a new
            # row storing another value there is invisible to it.  The
            # stored value is read off the write's after-image (a
            # generated key, the coerced value, a NULL); without one
            # only an inserted value is known -- an omitted column may
            # have been given any value.
            stored = _image_column(check.column, write)
            if stored is not None:
                return all(value != read_value for value in stored)
            if check.set_binding is not None:
                inserted = check.set_binding.resolve(write.values)
                return inserted != read_value
            return False

        # UPDATE / DELETE from here on.
        if pair.write_kind == "update" and check.column_is_written:
            # The write rewrites this column: rows may *enter* the
            # read's set (new value == read value) or *leave* it (old
            # value == read value).  Prove disjointness only when both
            # directions are excluded.
            enters = True
            if check.set_binding is not None:
                new_value = check.set_binding.resolve(write.values)
                enters = new_value == read_value
            leaves = self._pre_image_may_contain(check, write, read_value, policy)
            return not enters and not leaves

        if not pair.write_conjunctive:
            return False  # cannot bound the written row set
        if check.write_binding is not None:
            write_value = check.write_binding.resolve(write.values)
            return write_value != read_value
        if policy.pre_images:
            # The write does not mention the column: consult the
            # affected rows themselves (the paper's extra query).
            contains = self._pre_image_may_contain(check, write, read_value, policy)
            return not contains
        return False

    def _pre_image_may_contain(
        self,
        check: ColumnCheck,
        write: QueryInstance,
        read_value: object,
        policy: InvalidationPolicy,
    ) -> bool:
        """Did any affected row carry ``read_value`` in this column?

        Without a pre-image (policy below EXTRA_QUERY, or capture
        failed) the answer is conservatively True.
        """
        if not policy.pre_images:
            return True
        if write.pre_image is None:
            return True
        for row in write.pre_image:
            if check.column not in row:
                return True  # column missing from capture: be safe
            if row[check.column] == read_value:
                return True
        return False


# ---------------------------------------------------------------------------
# Index pruning plans
# ---------------------------------------------------------------------------
#
# The indexed invalidator wants to skip registered read instances
# *without* running :meth:`QueryAnalysisEngine.intersects` on each one.
# That is sound exactly when, for some column check, the set of read
# values the write could possibly intersect is computable up front: an
# instance whose bound value falls outside that set is one
# ``_check_proves_disjoint`` would have rejected, so ``intersects``
# would have returned False for it.  A :class:`PruneRule` captures one
# such check; its :meth:`~PruneRule.allowed_values` mirrors the
# corresponding ``_check_proves_disjoint`` branch value-for-value:
#
# ==============  =======================================================
# source          allowed read values (read_value must be in this set)
# ==============  =======================================================
# ``insert``      INSERT: the column's value in the after-image (the
#                 row as stored); without one, {inserted value} when the
#                 INSERT binds the column, else no pruning.
# ``write``       conjunctive UPDATE/DELETE pinning the column in its
#                 WHERE: exactly {write value}.
# ``set+preimage``  UPDATE assigning the column (pre-image rungs):
#                 rows may *enter* (new value) or *leave* (old values
#                 from the pre-image) the read's set -- the union of
#                 both.  No/incomplete pre-image -> no pruning.
# ``preimage``    conjunctive UPDATE/DELETE not mentioning the column
#                 (pre-image rungs): the captured old values.
#                 No/incomplete pre-image -> no pruning.
# ==============  =======================================================
#
# Anything `_check_proves_disjoint` answers conservatively (COLUMN_ONLY,
# non-conjunctive reads, pre-image gaps, unhashable values) yields *no*
# rule or a per-write ``None``, so the invalidator falls back to the
# full instance scan and behaves exactly like the brute-force protocol.


@dataclass(frozen=True)
class PruneRule:
    """One index-usable column check of a pair analysis.

    ``read_binding`` locates the read-side value (a value-vector
    position, or a literal baked into the template); ``source`` selects
    which ``_check_proves_disjoint`` branch computes the allowed set.
    """

    read_binding: EqualityBinding
    source: str  # "insert" | "write" | "set+preimage" | "preimage"
    column: str
    set_binding: EqualityBinding | None = None
    write_binding: EqualityBinding | None = None

    def allowed_values(self, write: QueryInstance) -> frozenset | None:
        """Read values ``write`` could intersect, or None for "no pruning".

        ``None`` means this rule cannot bound the write (missing or
        incomplete pre-image, unresolvable or unhashable values) and the
        caller must try the next rule or fall back to the full scan.
        """
        try:
            if self.source == "insert":
                stored = _pre_image_values(self.column, write)
                if stored is not None or self.set_binding is None:
                    return stored
                return frozenset((self.set_binding.resolve(write.values),))
            if self.source == "write":
                assert self.write_binding is not None
                return frozenset((self.write_binding.resolve(write.values),))
            if self.source == "set+preimage":
                assert self.set_binding is not None
                old = _pre_image_values(self.column, write)
                if old is None:
                    return None
                return old | frozenset(
                    (self.set_binding.resolve(write.values),)
                )
            if self.source == "preimage":
                return _pre_image_values(self.column, write)
        except (IndexError, TypeError):
            return None
        raise AssertionError(f"unknown prune source {self.source!r}")


def _image_column(column: str, write: QueryInstance) -> list | None:
    """Values of ``column`` across the write's image rows (the
    before-image of an UPDATE/DELETE, the after-image of an INSERT).

    ``None`` when no image was captured or any row lacks the column --
    the cases where nothing may be concluded from it.
    """
    if write.pre_image is None:
        return None
    values = []
    for row in write.pre_image:
        if column not in row:
            return None
        values.append(row[column])
    return values


def _pre_image_values(column: str, write: QueryInstance) -> frozenset | None:
    """:func:`_image_column` as a set -- the exact cases
    ``_pre_image_may_contain`` treats as "may contain anything" give
    ``None``, where pruning would be unsound."""
    values = _image_column(column, write)
    return None if values is None else frozenset(values)


def build_pruning_plan(
    pair: PairAnalysis, policy: InvalidationPolicy
) -> tuple[PruneRule, ...]:
    """Derive the index-usable rules for one pair analysis.

    Empty when instance-level pruning can never apply: impossible pairs
    (nothing to prune), COLUMN_ONLY (every instance invalidates), or
    non-conjunctive reads (``intersects`` returns True before reaching
    the checks).
    """
    if not pair.possible:
        return ()
    if policy is InvalidationPolicy.COLUMN_ONLY:
        return ()
    if not pair.read_conjunctive:
        return ()
    rules: list[PruneRule] = []
    for check in pair.checks:
        if pair.write_kind == "insert":
            rules.append(
                PruneRule(
                    check.read_binding,
                    "insert",
                    check.column,
                    set_binding=check.set_binding,
                )
            )
            continue
        if pair.write_kind == "update" and check.column_is_written:
            # Only the pre-image rungs can exclude the "leaves the read set"
            # direction; and without a SET binding the new value is
            # unknown, so rows may always enter.
            if policy.pre_images and check.set_binding is not None:
                rules.append(
                    PruneRule(
                        check.read_binding,
                        "set+preimage",
                        check.column,
                        set_binding=check.set_binding,
                    )
                )
            continue
        if not pair.write_conjunctive:
            continue  # cannot bound the written row set
        if check.write_binding is not None:
            rules.append(
                PruneRule(
                    check.read_binding,
                    "write",
                    check.column,
                    write_binding=check.write_binding,
                )
            )
        elif policy.pre_images:
            rules.append(
                PruneRule(check.read_binding, "preimage", check.column)
            )
    return tuple(rules)


def written_keys(pair: PairAnalysis, write: QueryInstance) -> frozenset | None:
    """The write's side of the row-witness test, bound once per write
    and read template: the keys of the rows ``write`` touched, when the
    pair admits a witness and every pre-image row carries the key.  None
    when nothing may be concluded -- no witness, no pre-image, a key
    missing from a row (or an unhashable one)."""
    key = pair.witness_key
    if pair.witness is None or write.pre_image is None:
        return None
    keys = []
    for row in write.pre_image:
        if key not in row:
            return None
        keys.append(row[key])
    try:
        return frozenset(keys)
    except TypeError:
        return None


def witness_spares(
    position: int | None,
    written: frozenset,
    witness: tuple[tuple[int, tuple], ...] | None,
) -> bool:
    """The read's side: did the read capture keys at ``position`` and
    show none of the ``written`` ones?"""
    if witness is not None:
        for captured, keys in witness:
            if captured == position:
                return written.isdisjoint(keys)
    return False


def witness_excuses(
    pair: PairAnalysis,
    witness: tuple[tuple[int, tuple], ...] | None,
    write: QueryInstance,
) -> bool:
    """The row-witness rung's test: is a read instance provably
    untouched by ``write``?

    ``witness`` is the instance's ``(output position, keys shown)``
    pairs.  True when the pair admits a witness at a captured position
    and no row in the write's pre-image carries one of the keys the
    read showed.  Anything unknown -- no witness (the read ran before
    its table's first write), no pre-image, a key missing from a
    pre-image row -- answers False and leaves the doom standing.
    :func:`written_keys` and :func:`witness_spares` are its two halves.
    """
    written = written_keys(pair, write)
    return written is not None and witness_spares(pair.witness, written, witness)


def probe_plan(
    engine: QueryAnalysisEngine,
    reads: list[QueryTemplate],
    write: QueryTemplate,
) -> tuple[tuple[str, str, str], ...]:
    """What an INSERT of ``write`` must probe so that every partner edge
    it has with ``reads`` (the registered read templates) can excuse:
    the sorted, deduplicated ``(column, partner table, partner column)``
    triples.  Empty for anything but an INSERT."""
    if write.info.kind != "insert":
        return ()
    return tuple(
        sorted(
            {
                edge.probe
                for read in reads
                for edge in engine.partner_edges(read, write)
            }
        )
    )


#: One partner edge bound to a write (:func:`probed_partners`): the
#: read's equality bindings on the partner table, and the partner rows
#: the inserted rows can join, as dicts.
ProbedEdge = tuple[tuple[EqualityBinding, ...], tuple[dict, ...]]


def probed_partners(pair: PairAnalysis, write: QueryInstance) -> tuple[ProbedEdge, ...]:
    """The write's side of the partner test, bound once per write and
    read template: each edge of the pair for which every inserted row
    was probed, with the partner rows found.  An edge with a row never
    probed, or a row without the join column, excuses nothing and is
    left out.  An edge with no partner row at all excuses every read."""
    if not pair.partners or write.partners is None or write.pre_image is None:
        return ()
    probed = []
    for edge in pair.partners:
        rows = _probed_rows(edge, write)
        if rows is not None:
            probed.append((edge.bindings, rows))
    return tuple(probed)


def _probed_rows(edge: PartnerEdge, write: QueryInstance) -> tuple[dict, ...] | None:
    found: list[dict] = []
    for row in write.pre_image:
        if edge.column not in row:
            return None
        value = row[edge.column]
        for table, partner_column, probed, rows in write.partners:
            if (
                table == edge.table
                and partner_column == edge.partner_column
                and probed == value
            ):
                found.extend(map(dict, rows))
                break
        else:
            return None  # never probed
    return tuple(found)


#: A partner row without the column a binding names (never the case for
#: a ``SELECT *`` probe): it contradicts nothing.
_MISSING = object()


def partners_spare(probed: tuple[ProbedEdge, ...], read_values: tuple[object, ...]) -> bool:
    """The read's side: for some probed edge, does every partner row
    contradict an equality the read puts on the partner table?  A
    binding the read values cannot resolve makes its edge excuse
    nothing."""
    for bindings, rows in probed:
        try:
            bound = [(b.column, b.resolve(read_values)) for b in bindings]
        except IndexError:
            continue
        if all(
            any(
                # The read's ``c = v`` holds, as the engine evaluates
                # it, only for two equal non-NULL values.
                (found := row.get(column, _MISSING)) is not _MISSING
                and (found is None or wanted is None or found != wanted)
                for column, wanted in bound
            )
            for row in rows
        ):
            return True
    return False


def partners_excuse(
    pair: PairAnalysis, read_values: tuple[object, ...], write: QueryInstance
) -> bool:
    """The partner-probe test: is a join read provably untouched by an
    INSERT?

    True when, for some edge of the pair, every inserted row's partner
    rows (the write's probe of the partner table, ``write.partners``)
    each contradict an equality the read puts on the partner table --
    or there are none.  Anything unknown -- no probe for a row, a row
    without the join column, a binding the read values cannot resolve
    -- leaves the doom standing.  :func:`probed_partners` and
    :func:`partners_spare` are its two halves.
    """
    return partners_spare(probed_partners(pair, write), read_values)


def instance_filter(
    plan: tuple[PruneRule, ...], write: QueryInstance
) -> tuple[int | None, frozenset] | None:
    """Resolve ``plan`` against one write into an instance filter.

    Returns:

    - ``None`` -- no rule applies to this write; scan every instance;
    - ``(position, allowed)`` -- only instances whose value-vector entry
      at ``position`` is in ``allowed`` can intersect; the rest are
      provably disjoint and may be skipped unexamined;
    - ``(None, frozenset())`` -- the read side pins the column to a
      *literal* outside the allowed set, so every instance of the
      template is disjoint: skip the template wholesale.
    """
    for rule in plan:
        allowed = rule.allowed_values(write)
        if allowed is None:
            continue
        position = rule.read_binding.value_index
        if position is None:
            # Literal read binding: one in/out decision for the whole
            # template rather than a per-instance discrimination.
            try:
                pinned = rule.read_binding.literal in allowed
            except TypeError:
                continue
            if pinned:
                continue  # this rule cannot prune; maybe the next can
            return None, frozenset()
        return position, allowed
    return None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _where_binding(
    info: StatementInfo, table: str, column: str
) -> EqualityBinding | None:
    """The write's WHERE-clause binding on ``table.column``, if any.

    UPDATE statements also register SET bindings in
    ``equality_bindings``; those are excluded here (they describe the
    post-state, not the selected rows) and surfaced separately via
    :func:`_set_binding`.
    """
    set_columns = {c for t, c in info.columns_written if t == table}
    for binding in info.equality_bindings:
        if binding.table != table or binding.column != column:
            continue
        if info.kind == "update" and column in set_columns:
            # Ambiguous: could be the SET binding.  WHERE bindings on a
            # column that is also assigned are rare; treat as absent.
            continue
        return binding
    return None


def _set_binding(
    info: StatementInfo, table: str, column: str
) -> EqualityBinding | None:
    """The UPDATE SET / INSERT value binding on ``table.column``, if any."""
    if info.kind not in ("update", "insert"):
        return None
    set_columns = {c for t, c in info.columns_written if t == table}
    if column not in set_columns:
        return None
    for binding in info.equality_bindings:
        if binding.table == table and binding.column == column:
            return binding
    return None
