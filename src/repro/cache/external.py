"""External invalidation: the DynamicWeb/Weave-style API of Section 8.

AutoWebCache is fully transparent only while every database update goes
through the woven server-side application.  Updates performed directly
on the database (maintenance scripts, other applications) bypass the
JDBC aspect and would leave stale pages behind.  The paper's suggested
remedy: "extend the caching system with an API ... to allow an external
entity to invalidate cache entries.  This external entity could, for
instance, work through database triggers."

:class:`TriggerInvalidationBridge` is that entity.  Attached to a
:class:`~repro.db.engine.Database`'s trigger set, it converts every
write event *not* already handled by the woven application (i.e. writes
issued while no request context is open) into an invalidation pass over
the page cache, at full AC-extraQuery precision thanks to the trigger
pre-image.
"""

from __future__ import annotations

from repro.cache.api import Cache
from repro.cache.consistency import ConsistencyCollector
from repro.cache.entry import QueryInstance
from repro.db.engine import Database
from repro.db.triggers import WriteEvent
from repro.sql.template import templateize


class TriggerInvalidationBridge:
    """Routes direct-database writes into cache invalidation."""

    def __init__(
        self,
        cache: Cache,
        collector: ConsistencyCollector | None = None,
    ) -> None:
        self._cache = cache
        self._collector = collector
        self.external_writes = 0
        self.skipped_in_request = 0
        self._attached_to: Database | None = None

    def attach(self, database: Database) -> "TriggerInvalidationBridge":
        """Register this bridge on ``database``'s trigger set."""
        database.triggers.on_any(self._on_write)
        self._attached_to = database
        return self

    def _on_write(self, event: WriteEvent) -> None:
        if self._collector is not None and self._collector.current() is not None:
            # The write came through the woven application: the request
            # aspects already collect and process it.  Double
            # invalidation would be harmless but pollutes statistics.
            self.skipped_in_request += 1
            return
        if event.sql is None:
            return  # bulk load below the SQL layer: nothing to analyse
        template, values = templateize(event.sql, event.params)
        instance = QueryInstance(template, values, event.pre_image)
        self._cache.written_tables.add(event.table)
        self.external_writes += 1
        self._cache.process_write_request(f"<external:{event.table}>", [instance])

