"""Seeded lock-order violations (LK01).

Two flavours:

- ``Till``/``Vault`` acquire each other's (unranked) locks in both
  orders: a classic AB/BA deadlock cycle;
- ``BackwardsIndex`` holds ``cache-facade`` while entering
  ``invalidation-bus`` -- the reverse of the documented ``LOCK_ORDER``
  ranks.
"""

from __future__ import annotations

from repro.locks import NamedRLock


class Vault:
    def __init__(self) -> None:
        self._lock = NamedRLock("badapp-vault")
        self.till: Till | None = None

    def deposit(self, amount: int) -> None:
        with self._lock:
            if self.till is not None:
                self.till.reconcile()


class Till:
    def __init__(self, vault: Vault) -> None:
        self._lock = NamedRLock("badapp-till")
        self._vault = vault

    def reconcile(self) -> None:
        with self._lock:
            self._vault.deposit(0)


class PageMirror:
    def __init__(self) -> None:
        self._lock = NamedRLock("invalidation-bus")
        self._entries: list[str] = []

    def push(self, entry: str) -> None:
        with self._lock:
            self._entries.append(entry)


class BackwardsIndex:
    def __init__(self, mirror: PageMirror) -> None:
        self._lock = NamedRLock("cache-facade")
        self._mirror = mirror

    def rebuild(self) -> None:
        with self._lock:
            self._mirror.push("rebuild")
