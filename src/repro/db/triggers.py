"""Database triggers: per-table write notification hooks.

Section 8 of the paper: "if some updates are directly performed on the
database, transparency is difficult to achieve.  A possible solution is
to extend the caching system with an API ... to allow an external
entity to invalidate cache entries.  This external entity could, for
instance, work through database triggers."

A :class:`TriggerSet` registered on a :class:`~repro.db.engine.Database`
fires after every successful write *regardless of which path issued
it* -- the woven driver, a maintenance script, or a bulk load.  The
cache-side bridge lives in :mod:`repro.cache.external`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class WriteEvent:
    """One committed write, as seen by triggers."""

    table: str
    kind: str  # "insert" | "update" | "delete"
    #: Statement text and parameters that performed the write, when the
    #: write came through the SQL layer (bulk loads report None).
    sql: str | None
    params: tuple[object, ...]
    affected: int
    #: The rows an UPDATE/DELETE matched, as they were before it ran:
    #: the write's own before-image (``UpdateResult.before_image``),
    #: taken by the same plan run, so no other writer comes between
    #: image and write.  For an INSERT, the row it stored
    #: (``UpdateResult.after_image``).
    pre_image: tuple[dict[str, object], ...] | None = None


TriggerCallback = Callable[[WriteEvent], None]


class TriggerSet:
    """Registered trigger callbacks, per table and global."""

    def __init__(self) -> None:
        self._by_table: dict[str, list[TriggerCallback]] = {}
        self._global: list[TriggerCallback] = []
        self.fired = 0

    def on_table(self, table: str, callback: TriggerCallback) -> None:
        """Fire ``callback`` after every write to ``table``."""
        self._by_table.setdefault(table.lower(), []).append(callback)

    def on_any(self, callback: TriggerCallback) -> None:
        """Fire ``callback`` after every write to any table."""
        self._global.append(callback)

    def fire(self, event: WriteEvent) -> None:
        callbacks = self._by_table.get(event.table, []) + self._global
        for callback in callbacks:
            self.fired += 1
            callback(event)

    @property
    def empty(self) -> bool:
        return not self._by_table and not self._global
