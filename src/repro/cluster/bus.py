"""The invalidation bus: totally ordered write broadcast.

One woven node observes a write request and knows exactly which
``QueryInstance`` set it executed (PR-1's invalidation information).
Every *other* node, however, may hold pages computed from the rows that
write just changed -- the sharded router places a page on exactly one
node, but the underlying database is shared.  The bus closes that gap:
every write's invalidation information is broadcast to all nodes, each
message carrying a monotonically increasing **cluster sequence number**
assigned under the bus lock, and subscribers receive messages in
sequence order.

Two properties matter for the consistency argument (docs/cluster.md):

1. **Total order** -- sequence assignment and delivery happen under one
   lock, so every node observes the same write order, and a node's
   ``last_applied_seq`` is a complete summary of what it has seen.
2. **Synchronous delivery** -- ``publish`` returns only after every
   subscriber has run its invalidation pass.  The write request
   therefore does not complete (and its response is not sent) until
   the whole cluster is consistent, which is exactly the paper's
   invalidation-before-response rule extended to N nodes.  In-flight
   computations overlapping the write are handled by each node's own
   staleness window (``Cache.apply_writes`` buffers the message for its
   open flights).

A message also carries the write's **verdict table**
(:func:`~repro.cache.invalidation.verdict_table`): the template-level
verdicts -- lineage skip, pair analysis, bound instance filter -- that
do not depend on the shard.  The first node to reach a (write, read
template) cell fills it and the nodes after it read it, so a ring
analyses each write once and every node runs only its own probes.  The
bus lock serialises deliveries, so the table needs no lock of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cache.entry import QueryInstance
from repro.cache.invalidation import VerdictCells, verdict_table
from repro.errors import ClusterError
from repro.locks import NamedRLock

#: A subscriber: called with each message, returns the page keys it
#: invalidated locally.
Subscriber = Callable[["BusMessage"], set]


@dataclass(frozen=True)
class BusMessage:
    """One broadcast invalidation event.

    Besides what the write changed it carries :attr:`verdicts`, the
    verdict table its subscribers fill and share during the one
    delivery pass (module docstring).  The table lives for that pass:
    :meth:`InvalidationBus.publish` empties it afterwards, so the tail
    of recent messages holds no verdicts.  Cells key by the catalog
    version they were computed under, so a cell is never read under
    another catalog.
    """

    #: Cluster-wide sequence number (1-based, gap-free).
    seq: int
    #: Node (or front-end) that observed the write request.
    origin: str
    #: Request URI the write arrived under (statistics only).
    uri: str
    #: The write's invalidation information, without duplicates (the
    #: router dedupes before it publishes).
    writes: tuple[QueryInstance, ...]
    #: Opaque trace propagation ids ``(trace_id, span_id)`` stamped by
    #: the publisher's observability advice, if any is woven.  The bus
    #: carries but never interprets them: subscribers on other nodes
    #: use the pair to stitch their invalidation work into the
    #: originating request's trace.
    trace: tuple[str, str] | None = None
    #: One cell dict per write, filled by the first node to reach a
    #: read template (:func:`~repro.cache.invalidation.verdict_table`).
    verdicts: tuple[VerdictCells, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdicts", verdict_table(self.writes))


@dataclass
class BusStats:
    """Counters for one bus (all mutated under the bus lock)."""

    published: int = 0
    #: Individual deliveries (published x subscribers at publish time).
    delivered: int = 0
    #: Union-size of page keys doomed per publish, accumulated.
    pages_invalidated: int = 0


class InvalidationBus:
    """Sequence-numbered synchronous broadcast channel between nodes."""

    def __init__(self) -> None:
        self._lock = NamedRLock("invalidation-bus")
        self._seq = 0
        #: name -> subscriber, in subscription order (dicts preserve it).
        self._subscribers: dict[str, Subscriber] = {}
        self.stats = BusStats()
        #: Bounded tail of recent messages (observability/tests).
        self._recent: list[BusMessage] = []
        self._recent_limit = 64

    @property
    def seq(self) -> int:
        """The sequence number of the last published message.

        Reading it takes the bus lock, so it waits out any delivery
        pass in progress: every message up to the returned number has
        been applied on every subscriber.
        """
        with self._lock:
            return self._seq

    @property
    def subscriber_names(self) -> list[str]:
        with self._lock:
            return list(self._subscribers)

    def subscribe(self, name: str, subscriber: Subscriber) -> int:
        """Register ``subscriber``; returns the current sequence number.

        The returned value is the join point: the subscriber has, by
        definition, seen nothing up to and including it, and will see
        every message after it.
        """
        with self._lock:
            if name in self._subscribers:
                raise ClusterError(f"{name!r} is already subscribed to the bus")
            self._subscribers[name] = subscriber
            return self._seq

    def unsubscribe(self, name: str) -> None:
        """Drop ``name`` (its cache is unreachable after a leave/crash --
        a rejoin starts from an empty shard, so nothing can go stale)."""
        with self._lock:
            if name not in self._subscribers:
                raise ClusterError(f"{name!r} is not subscribed to the bus")
            del self._subscribers[name]

    def publish(
        self,
        origin: str,
        uri: str,
        writes: Sequence[QueryInstance],
        trace: tuple[str, str] | None = None,
    ) -> tuple[BusMessage, set]:
        """Broadcast one write's invalidation information.

        Returns the stamped message and the **union** of page keys
        invalidated across all subscribers; delivery runs under the bus
        lock, so sequence order equals delivery order on every node,
        and the write response cannot be sent before the cluster is
        consistent.  ``writes`` must hold no duplicates: the publish
        lock serialises every write in the cluster, and each node walks
        the batch as given.  The message's verdict table is filled by
        the subscribers as they run, in subscription order, and emptied
        once the last has run.
        """
        with self._lock:
            self._seq += 1
            self.stats.published += 1
            message = BusMessage(
                seq=self._seq,
                origin=origin,
                uri=uri,
                writes=tuple(writes),
                trace=trace,
            )
            self._recent.append(message)
            del self._recent[: -self._recent_limit]
            doomed: set = set()
            for subscriber in self._subscribers.values():
                self.stats.delivered += 1
                doomed |= subscriber(message)
            for cells in message.verdicts:
                cells.clear()  # read by this pass only; the tail keeps none
            self.stats.pages_invalidated += len(doomed)
            return message, doomed

    def recent(self) -> list[BusMessage]:
        with self._lock:
            return list(self._recent)
