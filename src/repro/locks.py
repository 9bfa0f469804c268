"""Named, rank-ordered locks: the substrate of the lock-order sanitizer.

The cache core holds one lock per cache: the ``Cache`` facade's, taken
once per facade operation, under which the page store, dependency
table, analysis memo, statistics and containment table are plain
structures.  What nests is the cluster: router -> invalidation bus ->
a node's cache facade (the bus delivers into each node under its lock).
:data:`LOCK_ORDER` is the single place that order lives, and
:class:`NamedRLock` tags every lock instance with its position in it.

Two consumers key off the names:

- the **static** lock-order pass (:mod:`repro.staticcheck.lockorder`)
  maps ``self._lock = NamedRLock("cache-facade")`` assignments to names
  and checks every statically visible nested acquisition against the
  ranks below;
- the **dynamic** lockset mode (:mod:`repro.staticcheck.lockwatch`)
  weaves advice around :meth:`NamedRLock.acquire`/:meth:`release` --
  they are ordinary Python methods precisely so the weaver can wrap
  them -- and records the acquisition edges real traffic takes.

``NamedRLock`` deliberately mirrors :class:`threading.RLock`'s API
(``acquire``/``release``/context manager, reentrant) so converting a
lock to a named one is a one-line change at its construction site.
"""

from __future__ import annotations

import threading

#: The documented cluster-wide acquisition order, outermost first.  A
#: thread holding the lock named at position *i* may only acquire locks
#: named at positions > *i*; locks whose names are absent are
#: unconstrained by rank (the sanitizer still refuses cycles among
#: them).  The order encodes: the cluster router calls into the bus
#: (membership changes drain it) and bus delivery enters each node's
#: cache facade.  Two caches' facade locks are never held at once
#: (same-name nesting).
LOCK_ORDER: tuple[str, ...] = (
    "cluster-router",
    "invalidation-bus",
    "cache-facade",
)

#: name -> position in :data:`LOCK_ORDER`.
LOCK_RANKS: dict[str, int] = {name: i for i, name in enumerate(LOCK_ORDER)}


def lock_rank(name: str) -> int | None:
    """Position of ``name`` in the documented order (None if unranked)."""
    return LOCK_RANKS.get(name)


class NamedRLock:
    """A reentrant lock carrying its name in the documented lock order.

    Functionally identical to ``threading.RLock()``; the extra
    attributes (``name``, ``rank``) and the pure-Python ``acquire`` /
    ``release`` methods exist so static analysis can identify the lock
    and the weaver can observe it (see module docstring).
    """

    __slots__ = ("_inner", "name", "rank")

    def __init__(self, name: str) -> None:
        self._inner = threading.RLock()
        self.name = name
        self.rank = LOCK_RANKS.get(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._inner.acquire(blocking, timeout)

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> "NamedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NamedRLock {self.name!r} rank={self.rank}>"
