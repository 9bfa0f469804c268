"""One cluster member: a per-node ``Cache`` plus bus replay state.

A :class:`CacheNode` holds pages: its store -- page table, dependency
table, invalidator, single-flight table, statistics -- serves the slice
of the key space the ring assigns to it.  It analyses SQL through the
ring's one engine and analysis cache, which the router owns.
The node subscribes to the invalidation bus and replays every message
in sequence order through :meth:`apply`, which funnels into
``Cache.apply_writes`` so the node-local staleness window (open flights
buffer the writes they overlap) extends to writes that arrived via
*other* nodes.

Lifecycle: ``joined -> draining -> left``.  The router drives the
transitions; ``draining`` exists so a leave can move (rather than drop)
its entries while lookups still route elsewhere.

The node has no lock of its own: its replay position and lifecycle
state change under its cache's lock, so a delivery's sequence check and
its doom pass are one critical section.
"""

from __future__ import annotations

from repro.cache.api import Cache
from repro.cluster.bus import BusMessage
from repro.errors import ClusterError

JOINED = "joined"
DRAINING = "draining"
LEFT = "left"


class CacheNode:
    """A named cache shard with ordered invalidation replay."""

    def __init__(self, name: str, cache: Cache) -> None:
        self.name = name
        self.cache = cache
        self.state = JOINED
        #: Sequence number of the last bus message applied; messages
        #: must arrive strictly ascending (the bus guarantees it).
        self.last_applied_seq = 0
        #: Entries drained into this node when it joined the ring.
        self.moved_in = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CacheNode {self.name} {self.state} pages={len(self.cache)}"
            f" seq={self.last_applied_seq}>"
        )

    # -- bus replay --------------------------------------------------------------------

    def apply(self, message: BusMessage) -> set:
        """Replay one invalidation message; returns doomed page keys.

        Rejecting out-of-order or replayed sequence numbers turns any
        bus-ordering bug into a loud error instead of silent staleness.
        The doom pass walks this node's own candidate templates, under
        its lock, and reads or fills the message's verdict table: a
        template another node already judged costs only this shard's
        value-index probes and instance tests.
        """
        with self.cache.lock:
            if message.seq <= self.last_applied_seq:
                raise ClusterError(
                    f"node {self.name}: bus message {message.seq} arrived "
                    f"after {self.last_applied_seq} was already applied"
                )
            self.last_applied_seq = message.seq
            if self.state == LEFT:
                return set()
            return self.cache.apply_writes(message.writes, message.verdicts)

    def rebase(self, seq: int) -> None:
        """Adopt the bus position at (re-)subscription time."""
        with self.cache.lock:
            self.last_applied_seq = seq

    # -- lifecycle ---------------------------------------------------------------------

    # Leaving ``joined`` poisons every computation open here in the same
    # critical section.  The router opens flights and windows without
    # its own lock and checks ``state`` after the node-level open, so an
    # open either precedes the transition (and is poisoned by it) or
    # sees the new state (and the router closes it and routes again):
    # no computation opened here outlives the node's last invalidation.

    def mark_draining(self) -> None:
        with self.cache.lock:
            if self.state != JOINED:
                raise ClusterError(
                    f"node {self.name} cannot drain from state {self.state!r}"
                )
            self.state = DRAINING
            self.cache.poison_flights(set(self.cache.open_flight_keys()))

    def mark_left(self) -> None:
        with self.cache.lock:
            self.state = LEFT
            self.cache.poison_flights(set(self.cache.open_flight_keys()))

    # -- observability -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-node accounting for the cluster-level aggregate."""
        with self.cache.lock:
            return {
                "name": self.name,
                "state": self.state,
                "last_applied_seq": self.last_applied_seq,
                "pages": len(self.cache.pages),
                "bytes": self.cache.pages.total_bytes,
                "open_flights": self.cache.open_flights,
                "stats": self.cache.stats.snapshot(),
            }
