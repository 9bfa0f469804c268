"""Cache replacement policies.

The paper's evaluation uses an unbounded cache (database size is fixed,
the working set fits); its conclusion lists "different cache replacement
strategies" under varying cache size as future work.  This module
implements the LRU half of that extension behind a common interface,
exercised by the cache-size ablation benchmark.

A policy only tracks *keys and ordering*; the page store itself lives in
:class:`~repro.cache.page_cache.PageCache`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import CacheError


class ReplacementPolicy:
    """Interface: eviction bookkeeping for a bounded cache."""

    #: None means unbounded.
    capacity: int | None = None

    def on_insert(self, key: str) -> None:
        """Record that ``key`` entered the cache."""
        raise NotImplementedError

    def on_access(self, key: str) -> None:
        """Record a cache hit on ``key``."""
        raise NotImplementedError

    def on_remove(self, key: str) -> None:
        """Record that ``key`` left the cache (invalidation or eviction)."""
        raise NotImplementedError

    def victim(self) -> str:
        """Choose the key to evict; only called when non-empty."""
        raise NotImplementedError

    @property
    def needs_eviction(self) -> bool:
        return False


class UnboundedPolicy(ReplacementPolicy):
    """No eviction; the paper's evaluation configuration.

    Tracks nothing: the page store already holds every key, and a
    policy that never chooses a victim has no order to keep.
    """

    capacity = None

    def on_insert(self, key: str) -> None:
        pass

    def on_access(self, key: str) -> None:
        pass

    def on_remove(self, key: str) -> None:
        pass

    def victim(self) -> str:
        raise CacheError("unbounded cache never evicts")


class LruPolicy(ReplacementPolicy):
    """Evict the least recently used page.

    ``capacity=None`` disables the count bound but keeps recency order,
    for byte-bounded caches that still need LRU victims.
    """

    def __init__(self, capacity: int | None) -> None:
        if capacity is not None and capacity <= 0:
            raise CacheError("capacity must be positive")
        self.capacity = capacity
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_access(self, key: str) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def on_remove(self, key: str) -> None:
        self._order.pop(key, None)

    def victim(self) -> str:
        if not self._order:
            raise CacheError("empty cache has no victim")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    @property
    def needs_eviction(self) -> bool:
        return self.capacity is not None and len(self._order) > self.capacity


def make_policy(
    name: str, capacity: int | None, order_only: bool = False
) -> ReplacementPolicy:
    """Factory: ``unbounded``/``lru`` by name.

    Without a capacity the result is unbounded -- unless ``order_only``
    asks for victim-order tracking anyway (byte-bounded caches).
    """
    name = name.lower()
    if name not in ("unbounded", "lru"):
        raise CacheError(f"unknown replacement policy {name!r}")
    if not order_only and (name == "unbounded" or capacity is None):
        return UnboundedPolicy()
    # A byte bound needs a victim order; recency is the only one.
    return LruPolicy(capacity)
