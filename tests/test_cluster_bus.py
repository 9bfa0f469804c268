"""Invalidation bus: sequence numbering, ordering, delivery."""

import threading

import pytest

from repro.cache.api import Cache
from repro.cache.entry import QueryInstance
from repro.cluster.bus import BusMessage, InvalidationBus
from repro.cluster.node import CacheNode
from repro.errors import ClusterError
from repro.sql.template import templateize


def write_instance(value: int) -> QueryInstance:
    template, values = templateize(
        "UPDATE notes SET score = ? WHERE id = ?", (value, 1)
    )
    return QueryInstance(template, values)


class TestSequencing:
    def test_sequence_numbers_are_gap_free_and_ascending(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe("n", lambda message: (seen.append(message.seq), set())[1])
        for i in range(5):
            message, _doomed = bus.publish("router", "/w", [write_instance(i)])
            assert message.seq == i + 1
        assert seen == [1, 2, 3, 4, 5]
        assert bus.seq == 5

    def test_all_subscribers_receive_every_message(self):
        bus = InvalidationBus()
        received = {"a": [], "b": []}
        bus.subscribe("a", lambda m: (received["a"].append(m.seq), set())[1])
        bus.subscribe("b", lambda m: (received["b"].append(m.seq), set())[1])
        for i in range(3):
            bus.publish("router", "/w", [write_instance(i)])
        assert received["a"] == received["b"] == [1, 2, 3]
        assert bus.stats.published == 3
        assert bus.stats.delivered == 6

    def test_publish_returns_union_of_doomed_keys(self):
        bus = InvalidationBus()
        bus.subscribe("a", lambda m: {"page-1", "page-2"})
        bus.subscribe("b", lambda m: {"page-2", "page-3"})
        _message, doomed = bus.publish("router", "/w", [write_instance(1)])
        assert doomed == {"page-1", "page-2", "page-3"}

    def test_unsubscribed_node_stops_receiving(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe("a", lambda m: (seen.append(m.seq), set())[1])
        bus.publish("router", "/w", [write_instance(1)])
        bus.unsubscribe("a")
        bus.publish("router", "/w", [write_instance(2)])
        assert seen == [1]

    def test_concurrent_publishes_get_distinct_ordered_seqs(self):
        bus = InvalidationBus()
        order = []
        bus.subscribe("n", lambda m: (order.append(m.seq), set())[1])
        barrier = threading.Barrier(8)

        def publisher(i: int) -> None:
            barrier.wait(timeout=5)
            for j in range(25):
                bus.publish("router", "/w", [write_instance(i * 100 + j)])

        threads = [
            threading.Thread(target=publisher, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert order == list(range(1, 201))  # total order, no gaps, no dupes


    def test_reading_seq_waits_out_a_delivery_pass(self):
        """``seq`` takes the publish lock, so a reader never sees a
        sequence number some subscriber has not applied yet.  The
        join/leave audit relies on it in place of a separate barrier."""
        bus = InvalidationBus()
        entered, release = threading.Event(), threading.Event()
        applied = []

        def slow(message):
            entered.set()
            assert release.wait(timeout=5)
            applied.append(message.seq)
            return set()

        bus.subscribe("n", slow)
        publisher = threading.Thread(
            target=bus.publish, args=("router", "/w", [write_instance(1)])
        )
        publisher.start()
        read = []
        reader = threading.Thread(target=lambda: read.append(bus.seq))
        try:
            assert entered.wait(timeout=5)
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive() and read == []  # blocked behind delivery
        finally:
            release.set()
            publisher.join(timeout=5)
        reader.join(timeout=5)
        assert not publisher.is_alive() and not reader.is_alive()
        assert read == [1] and applied == [1]


class TestSubscriptionErrors:
    def test_duplicate_subscribe_rejected(self):
        bus = InvalidationBus()
        bus.subscribe("a", lambda m: set())
        with pytest.raises(ClusterError, match="already subscribed"):
            bus.subscribe("a", lambda m: set())

    def test_unknown_unsubscribe_rejected(self):
        bus = InvalidationBus()
        with pytest.raises(ClusterError, match="not subscribed"):
            bus.unsubscribe("ghost")

    def test_subscribe_returns_join_seq(self):
        bus = InvalidationBus()
        bus.subscribe("a", lambda m: set())
        bus.publish("router", "/w", [write_instance(1)])
        assert bus.subscribe("late", lambda m: set()) == 1


class TestNodeReplay:
    def test_node_rejects_replayed_or_reordered_messages(self):
        node = CacheNode("n", Cache())
        message = BusMessage(seq=3, origin="router", uri="/w",
                             writes=(write_instance(1),))
        node.apply(message)
        assert node.last_applied_seq == 3
        with pytest.raises(ClusterError, match="already applied"):
            node.apply(message)
        with pytest.raises(ClusterError):
            node.apply(BusMessage(seq=2, origin="router", uri="/w",
                                  writes=(write_instance(2),)))

    def test_left_node_absorbs_messages_without_applying(self):
        node = CacheNode("n", Cache())
        node.mark_left()
        doomed = node.apply(
            BusMessage(seq=1, origin="router", uri="/w",
                       writes=(write_instance(1),))
        )
        assert doomed == set()
        assert node.last_applied_seq == 1

    def test_rebase_adopts_bus_position(self):
        node = CacheNode("n", Cache())
        node.rebase(41)
        node.apply(BusMessage(seq=42, origin="router", uri="/w",
                              writes=(write_instance(1),)))
        assert node.last_applied_seq == 42

    def test_lifecycle_transitions(self):
        node = CacheNode("n", Cache())
        node.mark_draining()
        with pytest.raises(ClusterError, match="cannot drain"):
            node.mark_draining()
        node.mark_left()
        snapshot = node.snapshot()
        assert snapshot["state"] == "left"
        assert snapshot["pages"] == 0

