"""The page store: Figure 3's first table plus eviction bookkeeping.

Tracks *why* an absent key is absent (never seen, invalidated, evicted,
expired) so the statistics layer can reproduce the paper's miss
taxonomy (Figures 16-17: cold misses vs invalidation misses).

A plain structure: it takes no lock.  Its owner, the
:class:`~repro.cache.api.Cache` facade, calls it only under the facade
lock, which is what keeps ``total_bytes``, the replacement policy's
ordering and the dependency registrations in step under concurrent
serving.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from repro.cache.dependency import DependencyTable
from repro.cache.entry import PageEntry
from repro.cache.replacement import ReplacementPolicy, UnboundedPolicy

#: Most miss reasons remembered for absent keys.  The taxonomy is a
#: statistic, so the oldest reason is dropped (the key then reads as
#: ``"cold"``) rather than letting the table grow with every key ever
#: evicted.
_GONE_LIMIT = 65536

_key_of = attrgetter("key")


class PageCache:
    """Bounded (or unbounded) store of page entries with dependencies.

    Capacity can be bounded by entry count (via the replacement
    policy's ``capacity``) and/or by total body bytes (``max_bytes``);
    either bound evicts in the replacement policy's victim order.
    """

    def __init__(
        self,
        policy: ReplacementPolicy | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self._entries: dict[str, PageEntry] = {}
        # Note: `policy or ...` would discard an *empty* bounded policy
        # (they define __len__), so test for None explicitly.
        self._policy = policy if policy is not None else UnboundedPolicy()
        self.max_bytes = max_bytes
        self.total_bytes = 0
        self.dependencies = DependencyTable()
        #: key -> reason it is gone ("invalidation"/"capacity"/"expired").
        self._gone: dict[str, str] = {}
        self.eviction_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # -- lookup ---------------------------------------------------------------------

    def lookup(self, key: str, now: float) -> tuple[PageEntry | None, str]:
        """Return (entry, miss-reason).

        On a hit the reason is ``"hit"``.  On a miss the reason is one
        of ``"cold"``, ``"invalidation"``, ``"capacity"``, ``"expired"``.
        Expired TTL entries are removed as a side effect.
        """
        entry = self._entries.get(key)
        if entry is not None:
            if entry.expired(now):
                self._remove(key, reason="expired")
                return None, "expired"
            self._policy.on_access(key)
            return entry, "hit"
        return None, self._gone.pop(key, "cold")

    def hit(self, key: str, now: float) -> PageEntry | None:
        """Return the live entry for ``key``, or ``None`` -- no taxonomy.

        The event-loop fast path probes with this instead of
        :meth:`lookup` because ``lookup`` destructively pops the
        ``_gone`` miss reason: if the fast path consumed it, the woven
        cache check that follows on the slow path would misreport an
        invalidation miss as cold.  A miss here leaves the store
        untouched; a hit updates recency exactly like ``lookup``.
        Expired entries are removed (with their ``"expired"`` reason
        preserved for the later woven lookup) and reported as a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expired(now):
            self._remove(key, reason="expired")
            return None
        self._policy.on_access(key)
        return entry

    def peek(self, key: str) -> PageEntry | None:
        """Entry for ``key`` without touching recency or expiry."""
        return self._entries.get(key)

    def keys(self) -> list[str]:
        return list(self._entries)

    def entries(self) -> list[PageEntry]:
        return list(self._entries.values())

    # -- insert / remove --------------------------------------------------------------

    def insert(
        self,
        entry: PageEntry,
        on_evicted: Callable[[set[str]], object] | None = None,
    ) -> list[PageEntry]:
        """Store ``entry`` and return the entries evicted to make room.

        ``on_evicted`` sees the victims' keys before the insert returns:
        whatever else must leave with them (the facade dooms the entries
        assembled from an evicted fragment's text) is gone within the
        same facade operation, before any lookup can run.
        """
        if entry.key in self._entries:
            # Refresh: replace in place (dependencies re-registered).
            self._remove(entry.key, reason="refresh")
        entries = self._entries
        entries[entry.key] = entry
        self.total_bytes += entry.size
        self._gone.pop(entry.key, None)
        policy = self._policy
        policy.on_insert(entry.key)
        if entry.dependencies and not entry.semantic:
            self.dependencies.register(entry.key, entry.dependencies)
        evicted: list[PageEntry] = []
        # Over capacity: more entries than the policy's count bound, or
        # more body bytes than ``max_bytes``.
        capacity, max_bytes = policy.capacity, self.max_bytes
        while (capacity is not None and len(entries) > capacity) or (
            max_bytes is not None and self.total_bytes > max_bytes
        ):
            victim = policy.victim()
            if victim == entry.key and len(entries) == 1:
                break  # never evict the sole, just-inserted entry
            evicted.append(entries[victim])
            self._remove(victim, reason="capacity")
            self.eviction_count += 1
        if evicted and on_evicted is not None:
            on_evicted(set(map(_key_of, evicted)))
        return evicted

    def release(self, key: str) -> PageEntry | None:
        """Remove and return ``key`` without recording a miss reason.

        Used by the cluster tier when rebalancing moves an entry to
        another node: the page is not invalidated or evicted -- it
        simply lives elsewhere now -- so a later local lookup must read
        as a plain cold miss and the byte/dependency accounting must
        shrink exactly as if the entry had never been here.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._remove(key, reason="refresh")
        return entry

    def invalidate(self, key: str) -> bool:
        """Remove ``key`` due to a consistency invalidation."""
        if key not in self._entries:
            return False
        self._remove(key, reason="invalidation")
        return True

    def clear(self) -> None:
        for key in list(self._entries):
            self._remove(key, reason="refresh")
        self._gone.clear()

    def _remove(self, key: str, reason: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.total_bytes -= entry.size
        self._policy.on_remove(key)
        if entry.dependencies and not entry.semantic:
            self.dependencies.unregister(key, entry.dependencies)
        if reason != "refresh":
            # Consistency removal: kill any pinned wire buffer so the
            # event-loop fast path stops serving it even through entry
            # references grabbed before this removal.  "refresh" covers
            # in-place replacement and cluster rebalancing, where the
            # entry (or its successor) is still live and must keep its
            # buffer (:meth:`PageEntry.doom`).
            entry.doomed = True
            gone = self._gone
            gone[key] = reason
            if len(gone) > _GONE_LIMIT:
                del gone[next(iter(gone))]
