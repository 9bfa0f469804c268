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
appends to a pending list that the first reader takes in (a page
evicted before any write looks is never taken in at all).  A page's
registrations are one record: the list of its ``(page key, instance)``
tuples the table keeps under the page's key, the very tuples the
template lists and value-index buckets hold.  Removing a page drops its
key, moves a counter per instance and notes each tuple's identity as
dead; nothing is searched.  The readers skip dead references and
count nothing for them, and a template's references are compacted once
the dead outnumber the live, and are more than a few (a template whose
last page goes is dropped whole, at once).  Live registrations keep their registration order, so a
write visits them -- and counts what depends on that order -- exactly as
if the dead had been removed eagerly.

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


#: Dead references a template keeps before the dead outnumbering the
#: live compacts it: a template of a few pages is not rebuilt per
#: eviction.
_COMPACT_FLOOR = 8



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
        #: template -> its registrations, live and dead, in registration
        #: order.  A template is here exactly while it has a live one.
        self._by_template: dict[QueryTemplate, list[Registration]] = {}
        #: template -> live registrations under it (no count walks pages).
        self._counts: dict[QueryTemplate, int] = {}
        #: template -> the ``id`` of each dead registration still in its
        #: list and buckets (held there, so no id is reused meanwhile).
        self._dead: dict[QueryTemplate, set[int]] = {}
        #: Inverted index: table name -> templates referencing it, in
        #: registration order (a dict, not a set: a write then visits its
        #: candidates in the same order in every process, so counters
        #: that depend on the order -- which instance of a page a write
        #: tests first -- replay exactly).
        self._templates_by_table: dict[
            str, dict[QueryTemplate, None]
        ] = defaultdict(dict)
        #: template -> position -> value -> the registrations whose
        #: instance holds that value at that position, in order.
        #: Built for a template by the first write that probes it.
        self._value_index: dict[
            QueryTemplate, dict[int, dict[object, list[Registration]]]
        ] = {}
        #: Template texts whose value index was abandoned (unhashable
        #: values); lookups on them fall back to the full scan.
        self._unindexable: set[str] = set()
        #: Moves whenever a template gains its first registration or
        #: loses its last (or may: :meth:`register`): a memo over the
        #: registered templates (the facade's probe plans) is current
        #: while it stands still.
        self.version = 0
        #: Registrations not taken in yet, in order: (page key, its
        #: instances, its record).  The first reader takes them in
        #: (:meth:`_settle`), skipping pages already gone.
        self._pending: list[tuple[str, tuple[QueryInstance, ...], list[Registration]]] = []

    def register(self, page_key: str, instances: tuple[QueryInstance, ...]) -> None:
        """Record that ``page_key`` depends on each read instance: an
        append, taken in by the next reader, so a page that leaves before
        any write looks costs nothing more."""
        record = self._pages.get(page_key)
        if record is None:
            record = self._pages[page_key] = []
        pending = self._pending
        pending.append((page_key, instances, record))
        by_template = self._by_template
        for instance in instances:
            if instance.template not in by_template:
                # It may register a template first: move the version
                # now, so a memo read before the next reader runs is
                # never current without it.
                self.version += 1
                break
        if len(pending) > 2 * len(self._pages) + 64:
            pages = self._pages
            self._pending = [entry for entry in pending if pages.get(entry[0]) is entry[2]]

    def _settle(self) -> None:
        """Take the pending registrations in, in their order."""
        pending, self._pending = self._pending, []
        pages = self._pages
        for page_key, instances, record in pending:
            if pages.get(page_key) is record:
                self._take(page_key, instances, record)

    def _take(
        self, page_key: str, instances: tuple[QueryInstance, ...], record: list[Registration]
    ) -> None:
        by_template, counts, value_index = self._by_template, self._counts, self._value_index
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
                    registrations = by_template[template] = []
                    counts[template] = 0
                    self._dead[template] = set()
                    self.version += 1
                    for table in template.tables:
                        self._templates_by_table[table][template] = None
                registration = (page_key, instance)
                record.append(registration)
                registrations.append(registration)
                counts[template] += 1
                if template in value_index:
                    indexable.append(registration)
        if indexable:
            self._index(indexable)

    def unregister(self, page_key: str, instances: tuple[QueryInstance, ...] = ()) -> None:
        """Remove ``page_key``'s registrations (on eviction/invalidation):
        its record goes, and every registration in it is dead."""
        record = self._pages.pop(page_key, None)
        if record is None:
            return
        counts, dead = self._counts, self._dead
        for registration in record:
            template = registration[1].template
            if template not in counts:
                continue  # dropped with an earlier instance of the page
            counts[template] -= 1
            if counts[template]:
                dead[template].add(id(registration))
            else:
                self._drop(template)
        for registration in record:
            template = registration[1].template
            gone = dead.get(template)
            if gone is not None and len(gone) > max(counts[template], _COMPACT_FLOOR):
                self._compact(template)

    # -- index maintenance ---------------------------------------------------------

    def _index(self, registrations: list[Registration]) -> None:
        """Append ``registrations`` to their templates' value indexes."""
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
                        bucket[value] = [registration]
                    else:
                        found.append(registration)
            except (IndexError, TypeError):
                # Short or unhashable vector: demote the template for
                # good (a partially indexed template would answer
                # lookups unsoundly).  The invalidator falls back to
                # full scans.
                unindexable.add(template.text)
                value_index.pop(template, None)

    def _drop(self, template: QueryTemplate) -> None:
        """``template`` lost its last live registration: forget it."""
        self.version += 1
        del self._by_template[template]
        del self._counts[template]
        del self._dead[template]
        self._value_index.pop(template, None)
        for table in template.tables:
            remaining = self._templates_by_table.get(table)
            if remaining is not None:
                remaining.pop(template, None)
                if not remaining:
                    del self._templates_by_table[table]

    def _compact(self, template: QueryTemplate) -> None:
        """Rebuild ``template``'s list and value index from its live
        registrations, in their order."""
        dead = self._dead[template]
        live = [each for each in self._by_template[template] if id(each) not in dead]
        self._by_template[template] = live
        self._dead[template] = set()
        if template in self._value_index:
            self._value_index[template] = {}
            self._index(live)

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
        table index proved irrelevant without a pair analysis.
        """
        if self._pending:
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
        registrations = self._by_template.get(template, ())
        dead = self._dead.get(template)
        if dead:
            return [each for each in registrations if id(each) not in dead]
        return list(registrations)

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
        if template.text in self._unindexable:
            return None
        if template not in self._by_template:
            return [], 0
        index = self._value_index.get(template)
        if index is None and template.indexable_positions:
            # Built on the first write that asks, and kept in step from
            # then on: a template no write probes never pays for one.
            self._value_index[template] = {}
            self._index(self._by_template[template])
            if template.text in self._unindexable:
                return None
            index = self._value_index[template]
        if index is None or position not in index:
            return None
        bucket, dead = index[position], self._dead[template]
        candidates: list[Registration] = []
        try:
            for value in values:
                found = bucket.get(value)
                if found is not None:
                    if dead:
                        candidates.extend([each for each in found if id(each) not in dead])
                    else:
                        candidates.extend(found)
        except TypeError:
            return None
        return candidates, self._counts[template] - len(candidates)

    def instance_count(self, template: QueryTemplate) -> int:
        """Number of registrations currently held under ``template``."""
        if self._pending:
            self._settle()
        return self._counts.get(template, 0)

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
        self.version += 1
        self._pending = []
        self._pages.clear()
        self._by_template.clear()
        self._counts.clear()
        self._dead.clear()
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
        return sum(self._counts.values())
