"""The dependency table: Figure 3's second structure, now indexed.

Maps each read-query template to the (read instance, page key) pairs
recorded when cached pages were generated: the instance carries the
value vector and the row witness its read captured.  When a write
arrives, the invalidator walks the read templates that *may* depend on
the write template (per the analysis engine) and runs the run-time
intersection test against each registered instance.

The paper's protocol consults *every* read template per write.  To make
the write path sub-linear, the table additionally maintains two indexes,
updated in step with the primary map:

1. an inverted **table index** (``table -> read templates``): a write
   can only affect templates sharing a table with it (the pair
   analysis's ``shared_tables`` precondition), so
   :meth:`candidate_templates` prunes every disjoint-table template
   without analysing the pair;
2. a per-template **value index** (``value-vector position -> value ->
   registrations``), one bucket per equality-bound position of the read
   template (:attr:`~repro.sql.template.QueryTemplate.
   indexable_positions`).  When the write pins the same column to a
   concrete value set, :meth:`instances_for_values` returns only the
   registrations whose bound value could possibly intersect -- every
   skipped instance is one the run-time intersection test would have
   rejected anyway, so pruning cannot change protocol outcomes.

Registrations whose indexed values are unhashable (never the case for
SQL scalars, but the table does not get to choose its callers) demote
the whole template to unindexed: :meth:`instances_for_values` then
answers ``None`` and the invalidator falls back to the full scan,
trading speed for the exact brute-force behaviour.

Registration is an append and removal is O(1).  :meth:`register`
appends to a pending list that the first reader needing it takes in (a
page evicted before any write looks is never taken in at all; a write
whose tables no template shares takes nothing in).  A page's
registrations are one record: the list of its ``(page key, instance)``
tuples the table keeps under the page's key, the very tuples the
template maps and value-index buckets hold.  Those maps key each tuple
by its identity, so removing a page deletes its tuples from them one
dict deletion each (one per indexed position in the value index), and
a reader returns what they hold as it stands: nothing is searched,
filtered or compacted.  Live registrations keep their registration
order, so a write visits them -- and counts what depends on that
order -- in the order they were registered.

Every table carries a **stamp** (:meth:`stamp`) that moves when a
template on it gains its first registration or loses its last: a memo
over the templates a write's tables reach (the invalidator's doom
programs, the router's probe plans) is current while the stamps of
those tables stand still.

A plain structure: it takes no lock.  The page store mutates it and the
invalidator reads it, both only inside a facade operation of their
owning :class:`~repro.cache.api.Cache`, which holds the facade lock.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.cache.entry import QueryInstance
from repro.sql.template import QueryTemplate

#: One registration as the readers return it: (page key, read instance).
#: The instance is the page entry's own, so its value vector and row
#: witness reach the invalidator without a copy or a second lookup.
Registration = tuple[str, QueryInstance]


class DependencyTable:
    """template -> registrations in order (plus two indexes).

    A page's instances are deduplicated by equality, in a list: vectors
    holding unhashable values (legal for the caller, impossible to
    index) must still be storable, and the per-page count is tiny so
    linear membership is fine.  One vector read twice with different
    results keeps both instances: the page is doomed unless both
    witnesses excuse the write, i.e. unless their union does.
    """

    def __init__(self) -> None:
        #: page key -> its record: its registrations, one per read
        #: instance (deduplicated by equality).
        self._pages: dict[str, list[Registration]] = {}
        #: template -> its live registrations by identity, in
        #: registration order.  A template is here exactly while it has
        #: one.
        self._by_template: dict[QueryTemplate, dict[int, Registration]] = {}
        #: Inverted index: table name -> templates referencing it, in
        #: registration order (a dict, not a set: a write then visits its
        #: candidates in the same order in every process, so counters
        #: that depend on the order -- which instance of a page a write
        #: tests first -- replay exactly).
        self._templates_by_table: dict[
            str, dict[QueryTemplate, None]
        ] = defaultdict(dict)
        #: template -> position -> value -> the registrations whose
        #: instance holds that value at that position, by identity, in
        #: order.  Built for a template by the first write that probes it.
        self._value_index: dict[
            QueryTemplate, dict[int, dict[object, dict[int, Registration]]]
        ] = {}
        #: Template texts whose value index was abandoned (unhashable
        #: values); lookups on them fall back to the full scan.
        self._unindexable: set[str] = set()
        #: table -> its stamp (:meth:`stamp`); ``_clock`` hands them out.
        self._stamps: dict[str, int] = {}
        self._clock = 0
        #: Registrations not taken in yet, in order: (page key, its
        #: instances, its record).  The first reader takes them in
        #: (:meth:`_settle`), skipping pages already gone.
        self._pending: list[tuple[str, tuple[QueryInstance, ...], list[Registration]]] = []
        #: Templates a pending registration may register first: their
        #: tables' stamps have moved already.  Empty, every pending
        #: registration is of a registered template.
        self._arriving: set[QueryTemplate] = set()

    def stamp(self, tables: Iterable[str]) -> int:
        """The latest stamp of ``tables``: it moves whenever a template
        on one of them gains its first registration (at :meth:`register`,
        before it is taken in) or loses its last, and at :meth:`clear`.
        A plain read: it takes nothing in."""
        stamps, latest = self._stamps, 0
        for table in tables:
            stamp = stamps.get(table, 0)
            if stamp > latest:
                latest = stamp
        return latest

    def census(self, tables: Iterable[str]) -> tuple[int, int]:
        """``tables``' :meth:`stamp` and how many templates are
        registered: what a write's doom pass reads before anything else.
        The pending registrations are taken in first only when one may
        register a template (the count would miss it); otherwise the
        first reader that needs them takes them in, and a pass with
        nothing to probe takes in nothing."""
        if self._arriving:
            self._settle()
        stamps, latest = self._stamps, 0  # :meth:`stamp`, inline
        for table in tables:
            stamp = stamps.get(table, 0)
            if stamp > latest:
                latest = stamp
        return latest, len(self._by_template)

    def _restamp(self, template: QueryTemplate) -> None:
        self._clock += 1
        for table in template.tables:
            self._stamps[table] = self._clock

    def register(self, page_key: str, instances: tuple[QueryInstance, ...]) -> None:
        """Record that ``page_key`` depends on each read instance: an
        append, taken in by the next reader, so a page that leaves before
        any write looks costs nothing more."""
        record = self._pages.get(page_key)
        if record is None:
            record = self._pages[page_key] = []
        pending = self._pending
        pending.append((page_key, instances, record))
        by_template, arriving = self._by_template, self._arriving
        for instance in instances:
            template = instance.template
            if template not in by_template and template not in arriving:
                # It may register the template first: move its tables'
                # stamps now, so a memo read before the next reader
                # runs is never current without it (:meth:`_restamp`,
                # inline: a miss's insert comes here).
                arriving.add(template)
                self._clock = clock = self._clock + 1
                for table in template.tables:
                    self._stamps[table] = clock
        if len(pending) > 2 * len(self._pages) + 64:
            pages = self._pages
            self._pending = [entry for entry in pending if pages.get(entry[0]) is entry[2]]

    def _settle(self) -> None:
        """Take the pending registrations in, in their order."""
        pending, self._pending = self._pending, []
        self._arriving = set()
        pages = self._pages
        for page_key, instances, record in pending:
            if pages.get(page_key) is record:
                self._take(page_key, instances, record)

    def _take(
        self, page_key: str, instances: tuple[QueryInstance, ...], record: list[Registration]
    ) -> None:
        by_template, value_index = self._by_template, self._value_index
        indexable: list[Registration] = []
        for instance in instances:
            if type(instance.values) is not tuple:
                instance = instance._replace(values=tuple(instance.values))
            for _key, held in record:
                if held == instance:
                    break
            else:
                template = instance.template
                registrations = by_template.get(template)
                if registrations is None:
                    registrations = by_template[template] = {}
                    for table in template.tables:
                        self._templates_by_table[table][template] = None
                registration = (page_key, instance)
                record.append(registration)
                registrations[id(registration)] = registration
                if template in value_index:
                    indexable.append(registration)
        if indexable:
            self._index(indexable)

    def unregister(self, page_key: str, instances: tuple[QueryInstance, ...] = ()) -> None:
        """Remove ``page_key``'s registrations (on eviction/invalidation):
        its record goes, and each of its registrations leaves the
        template map and the value index."""
        record = self._pages.pop(page_key, None)
        if record is None:
            return
        by_template, value_index = self._by_template, self._value_index
        for registration in record:
            template = registration[1].template
            registrations = by_template[template]
            del registrations[id(registration)]
            if not registrations:
                self._drop(template)
                continue
            index = value_index.get(template)
            if index is not None:
                vector = registration[1].values
                for position in template.indexable_positions:
                    bucket = index[position]
                    value = vector[position]
                    found = bucket[value]
                    del found[id(registration)]
                    if not found:
                        del bucket[value]

    # -- index maintenance ---------------------------------------------------------

    def _index(self, registrations: Iterable[Registration]) -> None:
        """Add ``registrations`` to their templates' value indexes."""
        value_index, unindexable = self._value_index, self._unindexable
        for registration in registrations:
            template = registration[1].template
            if unindexable and template.text in unindexable:
                continue
            index = value_index[template]
            vector = registration[1].values
            try:
                for position in template.indexable_positions:
                    bucket = index.get(position)
                    if bucket is None:
                        bucket = index[position] = {}
                    value = vector[position]
                    found = bucket.get(value)
                    if found is None:
                        bucket[value] = {id(registration): registration}
                    else:
                        found[id(registration)] = registration
            except (IndexError, TypeError):
                # Short or unhashable vector: demote the template for
                # good (a partially indexed template would answer
                # lookups unsoundly).  The invalidator falls back to
                # full scans.
                unindexable.add(template.text)
                value_index.pop(template, None)

    def _drop(self, template: QueryTemplate) -> None:
        """``template`` lost its last live registration: forget it.  A
        pending registration of it would register it again, so it is
        arriving once more."""
        self._restamp(template)
        if self._pending:
            self._arriving.add(template)
        del self._by_template[template]
        self._value_index.pop(template, None)
        for table in template.tables:
            remaining = self._templates_by_table.get(table)
            if remaining is not None:
                remaining.pop(template, None)
                if not remaining:
                    del self._templates_by_table[table]

    # -- reads ---------------------------------------------------------------------

    def read_templates(self) -> list[QueryTemplate]:
        """Every read template currently backing at least one page."""
        if self._pending:
            self._settle()
        return list(self._by_template)

    def candidate_templates(
        self, tables: Iterable[str]
    ) -> tuple[list[QueryTemplate], int]:
        """Templates sharing a table with ``tables``, plus the skipped count.

        The skipped count is how many registered templates the inverted
        table index proved irrelevant without a pair analysis.  Pending
        registrations are taken in only when one may register a
        template (:meth:`census`).
        """
        if self._arriving:
            self._settle()
        candidates: dict[QueryTemplate, None] = {}
        for table in tables:
            found = self._templates_by_table.get(table)
            if found:
                candidates.update(found)
        return list(candidates), len(self._by_template) - len(candidates)

    def instances_for(self, template: QueryTemplate) -> list[Registration]:
        """(page key, read instance) pairs registered under ``template``."""
        if self._pending:
            self._settle()
        registrations = self._by_template.get(template)
        return [] if registrations is None else list(registrations.values())

    def instances_for_values(
        self,
        template: QueryTemplate,
        position: int,
        values: Iterable[object],
    ) -> tuple[list[Registration], int] | None:
        """Registrations whose vector[``position``] is in ``values``.

        Returns ``(candidates, skipped)`` where ``skipped`` counts the
        registrations the value index pruned, or ``None`` when the index
        cannot answer (unindexed template or position, unhashable probe
        value) and the caller must fall back to :meth:`instances_for`.
        """
        if self._pending:
            self._settle()
        unindexable = self._unindexable
        if unindexable and template.text in unindexable:
            return None
        registrations = self._by_template.get(template)
        if registrations is None:
            return [], 0
        index = self._value_index.get(template)
        if index is None and template.indexable_positions:
            # Built on the first write that asks, and kept in step from
            # then on: a template no write probes never pays for one.
            self._value_index[template] = {}
            self._index(registrations.values())
            if template.text in self._unindexable:
                return None
            index = self._value_index[template]
        bucket = None if index is None else index.get(position)
        if bucket is None:
            return None
        candidates: list[Registration] = []
        try:
            for value in values:
                found = bucket.get(value)
                if found is not None:
                    candidates.extend(found.values())
        except TypeError:
            return None
        return candidates, len(registrations) - len(candidates)

    def instance_count(self, template: QueryTemplate) -> int:
        """Number of registrations currently held under ``template``."""
        if self._pending:
            self._settle()
        return len(self._by_template.get(template, ()))

    def registrations_on(self, template: QueryTemplate, page_keys: Iterable[str]) -> int:
        """Number of registrations under ``template`` whose page is one
        of ``page_keys``: a walk over the keys, not the template."""
        if self._pending:
            self._settle()
        if template not in self._by_template:
            return 0
        count = 0
        for page_key in page_keys:
            for _key, read in self._pages.get(page_key, ()):
                count += read.template == template
        return count

    def clear(self) -> None:
        for template in (*self._by_template, *self._arriving):
            self._restamp(template)
        self._pending = []
        self._arriving = set()
        self._pages.clear()
        self._by_template.clear()
        self._templates_by_table.clear()
        self._value_index.clear()
        self._unindexable.clear()

    @property
    def template_count(self) -> int:
        if self._pending:
            self._settle()
        return len(self._by_template)

    @property
    def registration_count(self) -> int:
        if self._pending:
            self._settle()
        return sum(map(len, self._by_template.values()))
