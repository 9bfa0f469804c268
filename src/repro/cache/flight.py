"""Single-flight request coalescing (dogpile suppression).

The paper's AutoWebCache runs inside a multi-threaded Tomcat: when a
popular page is invalidated, every concurrent client misses at once and
-- without coalescing -- each executes the servlet and its SQL,
stampeding the database exactly when it is busiest.  A *single-flight*
discipline executes the computation once: the first miss becomes the
leader, later misses on the same key become waiters that block on the
leader's :class:`Flight` and serve the freshly inserted page.

Consistency rule (the part naive coalescing gets wrong): a page is
computed from database reads, and a write may land *between* those
reads and the insert.  The in-flight page has no dependency-table
registrations yet, so the normal invalidation protocol cannot doom it.
:class:`~repro.cache.api.Cache` therefore stamps each computation's
token with the write sequence number at start, buffers the invalidation
information of writes processed while any token is open, and re-runs
the intersection test at insert time; an overlapping, intersecting
write marks the token ``stale`` -- the page is not inserted, waiters
wake empty and recompute instead of serving a stale body.

Every computation holds exactly one token.  A flight is a staleness
window that others may join: a *published* token is found by later
misses on its key; a private one (coalescing off, or a waiter out of
attempts) is the same window that nobody else sees.
"""

from __future__ import annotations

import threading

#: How long a waiter blocks on a leader before giving up on that flight
#: (leader crash/beachball insurance).  Once its attempts run out the
#: waiter computes the page itself.
FLIGHT_TIMEOUT = 30.0


class Flight:
    """One open computation's token, shared by its leader and waiters.

    Most flights are never joined (every miss opens one; only a dogpile
    has waiters), so the wake-up event -- a condition variable and a
    lock -- is created by the first :meth:`join`, not by the leader.
    The facade serialises ``join`` and the ``finished`` flip under its
    lock, which is what makes the late creation safe: a waiter's event
    exists before the leader can look for it.
    """

    __slots__ = (
        "key", "start_seq", "published", "node", "entry", "stale",
        "waiters", "finished", "_event",
    )

    def __init__(self, key: str, start_seq: int, published: bool = False) -> None:
        self.key = key
        #: Cache-wide write sequence number when the computation began;
        #: writes processed after this point overlap the computation.
        self.start_seq = start_seq
        #: True when later misses on the key may join this token.
        self.published = published
        #: The cluster node the token was opened on (set by the router,
        #: which sends the token's later operations there); None on a
        #: single cache.
        self.node = None
        #: The computed PageEntry, set by the token's insert.
        self.entry = None
        #: Set when an invalidation lands during the computation.
        self.stale = False
        #: Number of requests that joined instead of computing.
        self.waiters = 0
        #: Set (under the facade lock) when the token is closed.
        self.finished = False
        self._event: threading.Event | None = None

    def join(self) -> None:
        """Count one more waiter (caller holds the facade lock)."""
        self.waiters += 1
        if self._event is None:
            self._event = threading.Event()

    def wait(self) -> None:
        """Block until :meth:`wake` or :data:`FLIGHT_TIMEOUT`; returns at
        once on a finished flight or one this caller never joined."""
        event = self._event
        if event is not None and not self.finished:
            event.wait(FLIGHT_TIMEOUT)

    def wake(self) -> None:
        """Release the waiters, if any; call after ``finished`` is set."""
        event = self._event
        if event is not None:
            event.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "flying"
        return (
            f"<Flight {self.key!r} {state} waiters={self.waiters}"
            f"{' stale' if self.stale else ''}>"
        )
