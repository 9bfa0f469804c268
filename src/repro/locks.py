"""Named, rank-ordered locks that check their own order at acquire.

The cache core holds one lock per cache: the ``Cache`` facade's, taken
once per facade operation, under which the page store, dependency
table, analysis memo, statistics and containment table are plain
structures.  What nests is the cluster: router -> invalidation bus ->
a node's cache facade (the bus delivers into each node under its lock).
:data:`LOCK_ORDER` is the single place that order lives, and
:class:`NamedRLock` tags every lock instance with its position in it.

A production ``NamedRLock`` *is* a C ``RLock`` with a name: it defines
no Python ``acquire``, ``release``, ``__enter__`` or ``__exit__``, so
``with lock:`` runs no Python frame.  With ``REPRO_LOCKWATCH=1`` set
when a lock is constructed (the test suite and ``make stress`` set it)
the lock is a :class:`CheckedRLock` instead, which keeps a per-thread
stack of the locks the thread holds and raises :class:`LockOrderError`
before acquiring a lock the thread does not already hold while the top
of that stack ranks equal or higher.  Ranks therefore strictly increase
along every thread's held locks, which rules out cycles; two instances
of one name (two nodes' cache facades) can never be held at once.
"""

from __future__ import annotations

import _thread
import os
import threading

#: The documented cluster-wide acquisition order, outermost first.  A
#: thread holding the lock named at position *i* may only acquire locks
#: named at positions > *i*, and every lock must carry one of these
#: names.  The order encodes: the cluster router calls into the bus
#: (membership changes drain it) and bus delivery enters each node's
#: cache facade.  Two caches' facade locks are never held at once.
LOCK_ORDER: tuple[str, ...] = (
    "cluster-router",
    "invalidation-bus",
    "cache-facade",
)

#: name -> position in :data:`LOCK_ORDER`.
LOCK_RANKS: dict[str, int] = {name: i for i, name in enumerate(LOCK_ORDER)}

#: Every order violation a checked lock refused, on any thread.  The
#: raise alone can be lost (a daemon thread's exception is swallowed),
#: so the test session asserts this list is empty at its end.
VIOLATIONS: list[str] = []


class LockOrderError(RuntimeError):
    """A checked lock was acquired against :data:`LOCK_ORDER`."""


class NamedRLock(_thread.RLock):
    """A reentrant C lock carrying its name and rank in the lock order."""

    __slots__ = ("name", "rank")

    def __new__(cls, name: str) -> "NamedRLock":
        rank = LOCK_RANKS.get(name)
        if rank is None:
            raise ValueError(
                f"lock name {name!r} is not in LOCK_ORDER {LOCK_ORDER}"
            )
        if cls is NamedRLock and os.environ.get("REPRO_LOCKWATCH") == "1":
            cls = CheckedRLock
        lock = super().__new__(cls)
        lock.name, lock.rank = name, rank
        return lock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} rank={self.rank}>"


class _Held(threading.local):
    """The locks this thread holds, outermost first (checked mode)."""

    def __init__(self) -> None:
        self.stack: list[NamedRLock] = []


_held = _Held()


class CheckedRLock(NamedRLock):
    """A :class:`NamedRLock` that refuses an out-of-order acquire."""

    __slots__ = ()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._is_owned():
            return super().acquire(blocking, timeout)
        stack = _held.stack
        if stack and stack[-1].rank >= self.rank:
            top = stack[-1]
            message = (
                f"[{threading.current_thread().name}] acquiring "
                f"{self.name!r} (rank {self.rank}) while holding "
                f"{top.name!r} (rank {top.rank})"
            )
            VIOLATIONS.append(message)
            raise LockOrderError(message)
        acquired = super().acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return acquired

    def release(self) -> None:
        super().release()
        if not self._is_owned():
            _held.stack.remove(self)

    __enter__ = acquire

    def __exit__(self, *exc_info: object) -> None:
        self.release()
