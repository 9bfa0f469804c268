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

1. **Total order** -- sequence assignment happens under one lock and
   each node's queue is FIFO, so every node observes the same write
   order, and a node's ``last_applied_seq`` is a complete summary of
   what it has seen.
2. **Synchronous delivery** (strong mode, the default) -- ``publish``
   returns only after every subscriber has run its invalidation pass.
   The write request therefore does not complete (and its response is
   not sent) until the whole cluster is consistent, which is exactly
   the paper's invalidation-before-response rule extended to N nodes.
   In-flight computations overlapping the write are handled by each
   node's own staleness window (``Cache.apply_writes`` buffers the
   message for its open flights).

**Bounded-staleness mode** (``mode="bounded"``) trades property 2 for
write latency that no longer grows with cluster size: ``publish``
returns after the message is durably enqueued on every node's FIFO
(sequence stamped, order fixed); delivery happens asynchronously -- a
pump thread, an explicit :meth:`flush`, or inline *shedding* when a
queue saturates or its head message approaches the staleness bound.
No invalidation is ever lost or reordered; it is only *late*, by a
measured, bounded amount: per-node delivery lag is recorded at every
delivery and the maximum observed lag must stay under
``staleness_bound`` (asserted end-to-end by the
``TriggerInvalidationBridge`` staleness oracle, see
docs/replication.md for why this bound composes with PR-1's
write-sequence staleness window).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.cache.entry import QueryInstance
from repro.cache.invalidation import dedupe_writes
from repro.errors import ClusterError
from repro.locks import NamedRLock

#: A subscriber: called with each message, returns the page keys it
#: invalidated locally.
Subscriber = Callable[["BusMessage"], set]

#: Delivery observer (bounded mode): called *outside* the bus lock
#: after a message was applied on one node, with the keys that node
#: doomed.  The router uses it for cross-shard containment closure and
#: the deferred doomed-key ledger.
DeliveryObserver = Callable[["BusMessage", set], None]

STRONG = "strong"
BOUNDED = "bounded"


@dataclass(frozen=True)
class BusMessage:
    """One broadcast invalidation event."""

    #: Cluster-wide sequence number (1-based, gap-free).
    seq: int
    #: Node (or front-end) that observed the write request.
    origin: str
    #: Request URI the write arrived under (statistics only).
    uri: str
    #: The write's invalidation information.
    writes: tuple[QueryInstance, ...]
    #: Opaque trace propagation ids ``(trace_id, span_id)`` stamped by
    #: the publisher's observability advice, if any is woven.  The bus
    #: carries but never interprets them: subscribers on other nodes
    #: use the pair to stitch their invalidation work into the
    #: originating request's trace.
    trace: tuple[str, str] | None = None


@dataclass
class BusStats:
    """Counters for one bus (all mutated under the bus lock)."""

    published: int = 0
    #: Individual deliveries (published x subscribers at publish time).
    delivered: int = 0
    #: Union-size of page keys doomed per publish, accumulated.
    pages_invalidated: int = 0
    #: Duplicate write instances dropped before broadcast (each would
    #: have been re-analysed by every subscriber under the bus lock).
    writes_deduped: int = 0
    #: Bounded mode: enqueue events (published x queues at publish).
    enqueued: int = 0
    #: Bounded mode: backpressure events -- a publish found a node's
    #: queue at capacity (or its head near the bound) and drained it
    #: synchronously before returning.  The shed-to-sync fallback.
    sheds: int = 0
    #: Bounded mode: maximum observed publish -> delivery lag (the
    #: measured staleness the oracle checks against the bound).
    max_staleness: float = 0.0


@dataclass
class _QueueStats:
    """Per-node delivery accounting (bounded mode, bus lock held)."""

    delivered: int = 0
    last_lag: float = 0.0
    max_lag: float = 0.0


class InvalidationBus:
    """Sequence-numbered broadcast channel between cache nodes.

    With ``mode="bounded"`` publishes enqueue instead of delivering;
    see the module docstring.  The ``pump`` flag starts a daemon drain
    thread on first subscription (real deployments); the simulator
    passes ``pump=False`` and drives :meth:`flush` from virtual time.
    """

    def __init__(
        self,
        mode: str = STRONG,
        staleness_bound: float = 0.5,
        queue_capacity: int = 512,
        clock: Callable[[], float] = time.time,
        pump: bool = True,
    ) -> None:
        if mode not in (STRONG, BOUNDED):
            raise ClusterError(f"unknown bus mode {mode!r}")
        if mode == BOUNDED and staleness_bound <= 0:
            raise ClusterError("staleness_bound must be positive")
        if queue_capacity <= 0:
            raise ClusterError("queue_capacity must be positive")
        self._lock = NamedRLock("invalidation-bus")
        self._seq = 0
        #: name -> subscriber, in subscription order (dicts preserve it).
        self._subscribers: dict[str, Subscriber] = {}
        self.stats = BusStats()
        #: Bounded tail of recent messages (observability/tests).
        self._recent: list[BusMessage] = []
        self._recent_limit = 64
        self.mode = mode
        self.staleness_bound = staleness_bound
        self.queue_capacity = queue_capacity
        self.clock = clock
        #: Bounded mode: per-node FIFO of (message, enqueued_at).
        self._queues: dict[str, deque] = {}
        self._queue_stats: dict[str, _QueueStats] = {}
        #: Bounded mode: per-node applied-sequence watermark (the seq
        #: of the last message drained to that subscriber).
        self._applied: dict[str, int] = {}
        #: Delivery observer (router closure hook), bounded mode only.
        self.on_delivered: DeliveryObserver | None = None
        # Pump thread (bounded mode, pump=True): lazily started.
        self._pump_wanted = pump and mode == BOUNDED
        self._pump_thread: threading.Thread | None = None
        self._pump_stop = threading.Event()

    @property
    def seq(self) -> int:
        """The sequence number of the last published message."""
        with self._lock:
            return self._seq

    @property
    def subscriber_names(self) -> list[str]:
        with self._lock:
            return list(self._subscribers)

    def applied_seq(self, name: str) -> int:
        """Highest sequence number ``name`` has applied.

        Bounded mode tracks a per-node watermark advanced at drain
        time; in strong mode delivery runs synchronously under the
        publish lock, so every subscriber is always at the bus head.
        The replica write-through audit compares watermarks instead of
        forcing a cluster-wide drain (see ``ClusterRouter._replicate``):
        a fresh copy is safe unless its secondary has applied a message
        the primary has not.
        """
        with self._lock:
            if self.mode == BOUNDED and name in self._applied:
                return self._applied[name]
            return self._seq

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
            if self.mode == BOUNDED:
                self._queues[name] = deque()
                self._queue_stats.setdefault(name, _QueueStats())
                self._applied[name] = self._seq
            seq = self._seq
        if self._pump_wanted:
            self._ensure_pump()
        return seq

    def unsubscribe(self, name: str) -> None:
        """Drop ``name``; any messages still queued for it are dropped
        too (its cache is unreachable after a leave/crash -- a rejoin
        starts from an empty shard, so nothing can go stale)."""
        with self._lock:
            if name not in self._subscribers:
                raise ClusterError(f"{name!r} is not subscribed to the bus")
            del self._subscribers[name]
            self._queues.pop(name, None)
            self._applied.pop(name, None)

    def publish(
        self,
        origin: str,
        uri: str,
        writes: list[QueryInstance],
        trace: tuple[str, str] | None = None,
    ) -> tuple[BusMessage, set]:
        """Broadcast one write's invalidation information.

        Strong mode returns the stamped message and the **union** of
        page keys invalidated across all subscribers; delivery runs
        under the bus lock, so sequence order equals delivery order on
        every node, and the write response cannot be sent before the
        cluster is consistent.  Duplicate write instances are dropped
        before broadcast -- the publish lock serialises every write in
        the cluster, so each duplicate would add a full per-node
        invalidation pass to the bus hold time for provably identical
        doomed sets.

        Bounded mode returns after durable enqueue with an **empty**
        doomed set (dooming happens at delivery; the router's
        ``on_delivered`` hook observes it).  Backpressure: a queue at
        capacity, or whose head message has aged past half the
        staleness bound, is drained synchronously before returning --
        the shed-to-sync fallback that keeps the bound honest even if
        the pump stalls.
        """
        unique = tuple(dedupe_writes(writes))
        dropped = len(writes) - len(unique)
        if self.mode == BOUNDED:
            return self._publish_bounded(origin, uri, unique, dropped, trace)
        with self._lock:
            message = self._stamp(origin, uri, unique, dropped, trace)
            doomed: set = set()
            for subscriber in self._subscribers.values():
                self.stats.delivered += 1
                doomed |= subscriber(message)
            self.stats.pages_invalidated += len(doomed)
            return message, doomed

    def _stamp(
        self,
        origin: str,
        uri: str,
        unique: tuple[QueryInstance, ...],
        dropped: int,
        trace: tuple[str, str] | None,
    ) -> BusMessage:
        """Sequence and record one publish (bus lock held)."""
        self._seq += 1
        self.stats.writes_deduped += dropped
        self.stats.published += 1
        message = BusMessage(
            seq=self._seq, origin=origin, uri=uri, writes=unique, trace=trace
        )
        self._recent.append(message)
        del self._recent[: -self._recent_limit]
        return message

    # -- bounded-staleness mode --------------------------------------------------------

    def _publish_bounded(
        self,
        origin: str,
        uri: str,
        unique: tuple[QueryInstance, ...],
        dropped: int,
        trace: tuple[str, str] | None,
    ) -> tuple[BusMessage, set]:
        notifications: list[tuple[BusMessage, set]] = []
        with self._lock:
            message = self._stamp(origin, uri, unique, dropped, trace)
            now = self.clock()
            for queue in self._queues.values():
                queue.append((message, now))
                self.stats.enqueued += 1
            # Backpressure / bound enforcement: a saturated queue, or
            # one whose head has been waiting for half the bound, is
            # drained before this publish returns.
            shed_threshold = self.staleness_bound / 2.0
            for name, queue in self._queues.items():
                if not queue:
                    continue
                over_capacity = len(queue) > self.queue_capacity
                head_age = now - queue[0][1]
                if over_capacity or head_age >= shed_threshold:
                    self.stats.sheds += 1
                    self._drain_node_locked(name, notifications)
        self._notify(notifications)
        return message, set()

    def _drain_node_locked(
        self, name: str, notifications: list[tuple[BusMessage, set]]
    ) -> None:
        """Deliver everything queued for ``name`` (bus lock held)."""
        queue = self._queues.get(name)
        subscriber = self._subscribers.get(name)
        if queue is None or subscriber is None:
            return
        accounting = self._queue_stats.setdefault(name, _QueueStats())
        while queue:
            message, enqueued_at = queue.popleft()
            doomed = subscriber(message)
            self._applied[name] = message.seq
            now = self.clock()
            lag = max(0.0, now - enqueued_at)
            accounting.delivered += 1
            accounting.last_lag = lag
            accounting.max_lag = max(accounting.max_lag, lag)
            self.stats.delivered += 1
            self.stats.max_staleness = max(self.stats.max_staleness, lag)
            self.stats.pages_invalidated += len(doomed)
            if doomed or self.on_delivered is not None:
                notifications.append((message, doomed))

    def _notify(self, notifications: list[tuple[BusMessage, set]]) -> None:
        """Run the delivery observer outside the bus lock.

        The observer takes the router lock (containment closure routes
        through shard owners); running it under the bus lock would
        invert the documented router -> bus order.
        """
        observer = self.on_delivered
        if observer is None:
            return
        for message, doomed in notifications:
            observer(message, doomed)

    def flush(self, names: list[str] | None = None) -> None:
        """Deliver everything queued (bounded mode; strong is a no-op
        beyond the lock barrier -- acquiring the bus lock joins any
        in-flight delivery pass, which is exactly the memory barrier
        the replica write-through protocol needs)."""
        notifications: list[tuple[BusMessage, set]] = []
        with self._lock:
            if self.mode == BOUNDED:
                targets = (
                    list(self._queues) if names is None else list(names)
                )
                for name in targets:
                    self._drain_node_locked(name, notifications)
        self._notify(notifications)

    def oldest_age(self, now: float | None = None) -> float:
        """Age of the oldest queued, undelivered message (0.0 if none).

        The simulator polls this to honour the staleness bound in
        virtual time; the pump thread keeps it near zero in real time.
        """
        with self._lock:
            oldest: float | None = None
            for queue in self._queues.values():
                if queue:
                    enqueued_at = queue[0][1]
                    oldest = (
                        enqueued_at
                        if oldest is None
                        else min(oldest, enqueued_at)
                    )
            if oldest is None:
                return 0.0
            return max(0.0, (now if now is not None else self.clock()) - oldest)

    def queue_depths(self) -> dict[str, int]:
        """Per-node undelivered message counts (bounded mode gauges)."""
        with self._lock:
            return {name: len(queue) for name, queue in self._queues.items()}

    def delivery_lags(self) -> dict[str, dict[str, float]]:
        """Per-node last/max delivery lag in seconds (bounded mode)."""
        with self._lock:
            return {
                name: {"last": s.last_lag, "max": s.max_lag}
                for name, s in self._queue_stats.items()
            }

    # -- pump thread -------------------------------------------------------------------

    def _ensure_pump(self) -> None:
        with self._lock:
            if self._pump_thread is not None and self._pump_thread.is_alive():
                return
            self._pump_stop.clear()
            interval = min(0.05, self.staleness_bound / 4.0)
            thread = threading.Thread(
                target=self._pump_loop,
                args=(interval,),
                name="invalidation-bus-pump",
                daemon=True,
            )
            self._pump_thread = thread
            thread.start()

    def _pump_loop(self, interval: float) -> None:
        while not self._pump_stop.wait(interval):
            self.flush()

    def close(self) -> None:
        """Stop the pump and deliver any residue (idempotent)."""
        self._pump_stop.set()
        thread = self._pump_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._pump_thread = None
        self.flush()

    def recent(self) -> list[BusMessage]:
        with self._lock:
            return list(self._recent)
