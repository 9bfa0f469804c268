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

A plain structure: it takes no lock.  The page store mutates it and the
invalidator reads it, both only inside a facade operation of their
owning :class:`~repro.cache.api.Cache`, which holds the facade lock.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.cache.entry import QueryInstance
from repro.sql.template import QueryTemplate

#: One registration as the indexes see it: (page key, read instance).
#: The instance is the page entry's own, so its value vector and row
#: witness reach the invalidator without a copy or a second lookup.
Registration = tuple[str, QueryInstance]

#: What the table stores for one page under one template: the read
#: instance itself, or -- only once the page registers a second
#: instance of the template -- a list of them.  A ``QueryInstance`` is a
#: tuple, so the two are told apart by ``type(...) is list``.
PageInstances = QueryInstance | list[QueryInstance]

#: What a value-index bucket stores for one value: the one registration
#: holding it, or -- from the second on -- an insertion-ordered dict of
#: registrations (ordered, so a lookup returns them in the same order
#: in every process; a dict, so a lookup copies them at C speed).
Registrations = Registration | dict[Registration, None]


class DependencyTable:
    """template -> page key -> read instances (plus two indexes).

    Nothing wraps a single registration: most pages register one
    instance per template, and most indexed values belong to one page,
    so the table stores the instance and the registration themselves
    and grows a container only for the second.
    """

    def __init__(self) -> None:
        #: A page's instances under one template are deduplicated by
        #: equality, in a list once there are two: vectors holding
        #: unhashable values (legal for the caller, impossible to
        #: index) must still be storable, and the per-page count is tiny
        #: so linear membership is fine.  One vector read twice with
        #: different results keeps both instances: the page is doomed
        #: unless both witnesses excuse the write, i.e. unless their
        #: union does.
        self._by_template: dict[QueryTemplate, dict[str, PageInstances]] = (
            defaultdict(dict)
        )
        #: template -> number of (page, instance) registrations under it,
        #: kept in step with ``_by_template`` so no count walks pages.
        self._counts: dict[QueryTemplate, int] = {}
        #: Inverted index: table name -> templates referencing it, in
        #: registration order (a dict, not a set: a write then visits its
        #: candidates in the same order in every process, so counters
        #: that depend on the order -- which instance of a page a write
        #: tests first -- replay exactly).
        self._templates_by_table: dict[
            str, dict[QueryTemplate, None]
        ] = defaultdict(dict)
        #: template -> position -> value -> the registration(s) whose
        #: instance holds that value at that position.
        self._value_index: dict[
            QueryTemplate, dict[int, dict[object, Registrations]]
        ] = {}
        #: Template texts whose value index was abandoned (unhashable
        #: values); lookups on them fall back to the full scan.
        self._unindexable: set[str] = set()
        #: Moves whenever a template gains its first registration or
        #: loses its last: a memo over the registered templates (the
        #: facade's probe plans) is current while it stands still.
        self.version = 0

    def register(self, page_key: str, instances: tuple[QueryInstance, ...]) -> None:
        """Record that ``page_key`` depends on each read instance."""
        by_template = self._by_template
        for instance in instances:
            template = instance.template
            if type(instance.values) is not tuple:
                instance = instance._replace(values=tuple(instance.values))
            pages = by_template.get(template)
            if pages is None:
                pages = by_template[template] = {}
                self.version += 1
                for table in template.tables:
                    self._templates_by_table[table][template] = None
            registered = pages.get(page_key)
            if registered is None:
                pages[page_key] = instance
            elif type(registered) is list:
                if instance in registered:
                    continue
                registered.append(instance)
            elif registered == instance:
                continue
            else:
                pages[page_key] = [registered, instance]
            self._counts[template] = self._counts.get(template, 0) + 1
            self._index_registration(template, page_key, instance)

    def unregister(self, page_key: str, instances: tuple[QueryInstance, ...]) -> None:
        """Remove ``page_key``'s registrations (on eviction/invalidation)."""
        for instance in instances:
            template = instance.template
            pages = self._by_template.get(template)
            if pages is None:
                continue
            registered = pages.pop(page_key, None)
            if registered is not None:
                if type(registered) is not list:
                    registered = (registered,)
                self._counts[template] -= len(registered)
                self._unindex_registrations(template, page_key, registered)
            if not pages:
                self.version += 1
                del self._by_template[template]
                del self._counts[template]
                self._value_index.pop(template, None)
                for table in template.tables:
                    remaining = self._templates_by_table.get(table)
                    if remaining is not None:
                        remaining.pop(template, None)
                        if not remaining:
                            del self._templates_by_table[table]

    # -- index maintenance ---------------------------------------------------------

    def _index_registration(
        self, template: QueryTemplate, page_key: str, instance: QueryInstance
    ) -> None:
        positions = template.indexable_positions
        if not positions or template.text in self._unindexable:
            return
        index = self._value_index.get(template)
        if index is None:
            index = self._value_index[template] = {}
        registration = (page_key, instance)
        vector = instance.values
        try:
            for position in positions:
                bucket = index.get(position)
                if bucket is None:
                    bucket = index[position] = {}
                value = vector[position]
                entries = bucket.get(value)
                if entries is None:
                    bucket[value] = registration
                elif type(entries) is dict:
                    entries[registration] = None
                else:
                    bucket[value] = {entries: None, registration: None}
        except (IndexError, TypeError):
            # Short or unhashable vector: demote the template for good
            # (a partially indexed template would answer lookups
            # unsoundly).  The invalidator falls back to full scans.
            self._unindexable.add(template.text)
            self._value_index.pop(template, None)

    def _unindex_registrations(
        self,
        template: QueryTemplate,
        page_key: str,
        registered: tuple[QueryInstance] | list[QueryInstance],
    ) -> None:
        index = self._value_index.get(template)
        if index is None:
            return
        for position, bucket in index.items():
            for instance in registered:
                try:
                    value = instance.values[position]
                    entries = bucket.get(value)
                except TypeError:  # unhashable value: was never indexed
                    continue
                if entries is None:
                    continue
                registration = (page_key, instance)
                if type(entries) is dict:
                    entries.pop(registration, None)
                    if len(entries) == 1:
                        bucket[value] = next(iter(entries))
                elif entries == registration:
                    del bucket[value]

    # -- reads ---------------------------------------------------------------------

    def read_templates(self) -> list[QueryTemplate]:
        """Every read template currently backing at least one page."""
        return list(self._by_template)

    def candidate_templates(
        self, tables: Iterable[str]
    ) -> tuple[list[QueryTemplate], int]:
        """Templates sharing a table with ``tables``, plus the skipped count.

        The skipped count is how many registered templates the inverted
        table index proved irrelevant without a pair analysis.
        """
        candidates: dict[QueryTemplate, None] = {}
        for table in tables:
            found = self._templates_by_table.get(table)
            if found:
                candidates.update(found)
        return list(candidates), len(self._by_template) - len(candidates)

    def instances_for(self, template: QueryTemplate) -> list[Registration]:
        """(page key, read instance) pairs registered under ``template``."""
        found: list[Registration] = []
        for page_key, registered in self._by_template.get(template, {}).items():
            if type(registered) is list:
                found.extend((page_key, instance) for instance in registered)
            else:
                found.append((page_key, registered))
        return found

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
        if template.text in self._unindexable:
            return None
        pages = self._by_template.get(template)
        if not pages:
            return [], 0
        index = self._value_index.get(template)
        if index is None or position not in index:
            return None
        bucket = index[position]
        candidates: list[Registration] = []
        try:
            for value in values:
                entries = bucket.get(value)
                if entries is None:
                    continue
                if type(entries) is dict:
                    candidates.extend(entries)
                else:
                    candidates.append(entries)
        except TypeError:
            return None
        return candidates, self._counts[template] - len(candidates)

    def instance_count(self, template: QueryTemplate) -> int:
        """Number of registrations currently held under ``template``."""
        return self._counts.get(template, 0)

    def registrations_on(self, template: QueryTemplate, page_keys: Iterable[str]) -> int:
        """Number of registrations under ``template`` whose page is one
        of ``page_keys``: a walk over the keys, not the template."""
        pages = self._by_template.get(template)
        if not pages:
            return 0
        count = 0
        for page_key in page_keys:
            registered = pages.get(page_key)
            if registered is not None:
                count += len(registered) if type(registered) is list else 1
        return count

    def clear(self) -> None:
        self.version += 1
        self._by_template.clear()
        self._counts.clear()
        self._templates_by_table.clear()
        self._value_index.clear()
        self._unindexable.clear()

    @property
    def template_count(self) -> int:
        return len(self._by_template)

    @property
    def registration_count(self) -> int:
        return sum(self._counts.values())
