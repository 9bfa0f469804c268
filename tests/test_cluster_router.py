"""The cluster router: sharded serving, broadcast invalidation,
node lifecycle, and cluster-wide accounting."""

import dataclasses

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import QueryInstance
from repro.cache.stats import CacheStats
from repro.cluster import ClusterRouter, make_cache_factory
from repro.errors import ClusterError
from repro.sql.template import templateize
from repro.web.http import HttpRequest

from tests.conftest import build_notes_app

TOPICS = [f"topic-{i}" for i in range(12)]


@pytest.fixture
def cluster_notes_app():
    """(database, container, cluster awc over 3 nodes); always unweaves."""
    db, container = build_notes_app()
    awc = AutoWebCache(n_nodes=3)
    awc.install(container.servlet_classes)
    try:
        yield db, container, awc
    finally:
        awc.uninstall()


def populate(container, topics=TOPICS):
    for i, topic in enumerate(topics):
        response = container.post(
            "/add",
            {"id": str(i + 1), "topic": topic, "body": f"b{i}", "score": "0"},
        )
        assert response.status == 200


def warm(container, topics=TOPICS):
    for topic in topics:
        assert container.get("/view_topic", {"topic": topic}).status == 200


def assert_node_accounting_exact(awc: AutoWebCache) -> None:
    """Per-node byte and dependency-table accounting must be exact."""
    for node in awc.router.nodes():
        pages = node.cache.pages
        entries = pages.entries()
        assert pages.total_bytes == sum(entry.size for entry in entries)
        live = set(pages.keys())
        registered = {
            page_key
            for template in pages.dependencies.read_templates()
            for page_key, _vector in pages.dependencies.instances_for(template)
        }
        expected = {e.key for e in entries if not e.semantic and e.dependencies}
        assert registered <= live
        assert registered == expected


class TestShardedServing:
    def test_pages_spread_across_nodes(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        per_node = [len(node.cache) for node in awc.router.nodes()]
        assert sum(per_node) == len(TOPICS)
        assert sum(1 for count in per_node if count > 0) >= 2

    def test_each_key_lives_only_on_its_owner(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        for node in awc.router.nodes():
            for key in node.cache.pages.keys():
                assert awc.router.owner_name(key) == node.name

    def test_second_read_hits_on_owner(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        hits_before = awc.stats.hits
        warm(container)
        assert awc.stats.hits == hits_before + len(TOPICS)
        assert_node_accounting_exact(awc)

    def test_write_invalidates_page_on_remote_shard(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        # Update one topic's note through the woven app; whatever node
        # owns that topic's page must drop it.
        response = container.post("/score", {"id": "1", "score": "99"})
        assert response.status == 200
        page = container.get("/view_topic", {"topic": "topic-0"})
        assert "(99)" in page.body
        assert awc.stats.invalidated_pages == 1

    def test_unrelated_pages_survive_the_write(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        container.post("/score", {"id": "1", "score": "99"})
        hits_before = awc.stats.hits
        warm(container, TOPICS[1:])  # all other topics still cached
        assert awc.stats.hits == hits_before + len(TOPICS) - 1


class TestWriteUnion:
    def test_process_write_request_returns_union_across_nodes(
        self, cluster_notes_app
    ):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        # A WHERE-less UPDATE intersects every topic page, which are
        # spread over all three nodes: the result must be the union of
        # every shard's casualties, not the local node's.
        template, values = templateize("UPDATE notes SET score = ?", (5,))
        doomed = awc.router.process_write_request(
            "/bulk", [QueryInstance(template, values)]
        )
        assert len(doomed) == len(TOPICS)
        owners = {awc.router.owner_name(key) for key in doomed}
        assert len(owners) >= 2  # casualties from more than one shard
        assert len(awc.router) == 0
        assert_node_accounting_exact(awc)

    def test_empty_write_set_is_a_noop(self, cluster_notes_app):
        _db, _container, awc = cluster_notes_app
        assert awc.router.process_write_request("/noop", []) == set()
        assert awc.stats.write_requests == 1  # still recorded


class TestSoloWindows:
    """Solo-computation staleness windows routed through the cluster."""

    @staticmethod
    def _read_instance(topic: str) -> QueryInstance:
        template, values = templateize(
            "SELECT id, topic, body, score FROM notes WHERE topic = ?",
            (topic,),
        )
        return QueryInstance(template, values)

    def test_bus_write_during_window_discards_insert(self, cluster_notes_app):
        _db, _container, awc = cluster_notes_app
        router = awc.router
        request = HttpRequest("GET", "/view_topic", {"topic": "topic-0"})
        key = request.cache_key()
        window = router.begin_window(key)
        try:
            owner = router.node(router.owner_name(key))
            assert key in owner.cache.open_flight_keys()
            # A WHERE-less UPDATE broadcast on the bus intersects the
            # pending read set; the window must catch it at insert.
            template, values = templateize("UPDATE notes SET score = ?", (9,))
            router.process_write_request("/w", [QueryInstance(template, values)])
            router.insert(
                request, "<stale>", [self._read_instance("topic-0")], window=window
            )
            assert window.stale
            assert owner.cache.stats.stale_inserts == 1
            assert len(router) == 0
        finally:
            router.end_window(window)
        assert key not in router.node(router.owner_name(key)).cache.open_flight_keys()

    def test_clean_window_inserts_normally(self, cluster_notes_app):
        _db, _container, awc = cluster_notes_app
        router = awc.router
        request = HttpRequest("GET", "/view_topic", {"topic": "topic-1"})
        key = request.cache_key()
        window = router.begin_window(key)
        try:
            entry = router.insert(
                request, "<fresh>", [self._read_instance("topic-1")], window=window
            )
            assert not window.stale
            assert entry.key == key
            assert len(router) == 1
        finally:
            router.end_window(window)
        assert router.open_flights == 0
        assert router.check(request) is entry

    def test_invalidate_key_routes_to_owner(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        key = awc.router.nodes()[0].cache.pages.keys()
        if not key:
            pytest.skip("node 0 drew no keys")
        target = key[0]
        assert awc.router.invalidate_key(target) is True
        assert awc.router.invalidate_key(target) is False


class TestLifecycle:
    def test_join_drains_remapped_entries(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        total_before = len(awc.router)
        node = awc.router.add_node("node-3")
        assert len(awc.router) == total_before  # drained, not dropped
        assert node.moved_in == len(node.cache)
        for key in node.cache.pages.keys():
            assert awc.router.owner_name(key) == "node-3"
        assert_node_accounting_exact(awc)
        # Drained entries still serve as hits on the new owner.
        hits_before = awc.stats.hits
        warm(container)
        assert awc.stats.hits == hits_before + len(TOPICS)

    def test_join_with_drop_discards_remapped_entries(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        total_before = len(awc.router)
        node = awc.router.add_node("node-3", drain=False)
        dropped = total_before - len(awc.router)
        assert len(node.cache) == 0
        assert node.moved_in == 0
        # The dropped keys re-enter as cold misses, not invalidations.
        misses_before = awc.stats.misses_cold
        warm(container)
        assert awc.stats.misses_cold == misses_before + dropped
        assert_node_accounting_exact(awc)

    def test_leave_drains_to_survivors(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        total_before = len(awc.router)
        victim = awc.router.node_names[0]
        awc.router.remove_node(victim)
        assert victim not in awc.router.node_names
        assert len(awc.router) == total_before
        hits_before = awc.stats.hits
        warm(container)
        assert awc.stats.hits == hits_before + len(TOPICS)
        assert_node_accounting_exact(awc)

    def test_left_node_no_longer_receives_bus_traffic(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        victim = awc.router.node(awc.router.node_names[0])
        awc.router.remove_node(victim.name)
        seq_before = victim.last_applied_seq
        container.post("/score", {"id": "1", "score": "7"})
        assert victim.last_applied_seq == seq_before

    def test_removing_every_node_empties_the_ring(self):
        router = ClusterRouter(["a", "b"], make_cache_factory())
        router.remove_node("a")
        router.remove_node("b")
        with pytest.raises(ClusterError):
            router.process_write_request("/w", [object()])

    def test_unknown_node_operations_raise(self):
        router = ClusterRouter(["a"], make_cache_factory())
        with pytest.raises(ClusterError, match="no node named"):
            router.node("ghost")
        with pytest.raises(ClusterError):
            router.remove_node("ghost")
        with pytest.raises(ClusterError, match="already joined"):
            router.add_node("a")

    def test_cluster_needs_a_node(self):
        with pytest.raises(ClusterError, match="at least one node"):
            ClusterRouter([], make_cache_factory())
        with pytest.raises(ClusterError, match="duplicate"):
            ClusterRouter(["a", "a"], make_cache_factory())


def topic_key(topic: str) -> str:
    return HttpRequest("GET", "/view_topic", {"topic": topic}).cache_key()


class TestCrashFailover:
    """A crashed node's keys fail over, cold, to their ring successor."""

    def test_the_failed_over_owner_still_hears_invalidations(
        self, cluster_notes_app
    ):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        key = topic_key(TOPICS[0])
        victim = awc.router.owner_name(key)
        awc.router.fail_node(victim)
        successor = awc.router.node(awc.router.owner_name(key))
        assert successor.name != victim
        warm(container)  # the successor computes the key afresh
        assert key in successor.cache.pages
        container.post("/score", {"id": "1", "score": "88"})
        for node in awc.router.nodes():
            assert key not in node.cache.pages
        page = container.get("/view_topic", {"topic": TOPICS[0]})
        assert "(88)" in page.body

    def test_losing_the_owner_falls_back_to_the_ring(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        key = topic_key(TOPICS[0])
        while len(awc.router.node_names) > 1:
            awc.router.fail_node(awc.router.owner_name(key))
        # One node left; it serves the key (as a recompute).
        assert awc.router.owner_name(key) == awc.router.node_names[0]
        assert container.get("/view_topic", {"topic": TOPICS[0]}).status == 200
        awc.router.fail_node(awc.router.node_names[0])
        with pytest.raises(ClusterError, match="reachable|empty"):
            awc.router.owner_name(key)


class TestFlightPinning:
    def test_rehomed_flight_is_poisoned_not_orphaned(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        # Open a flight for a key, then add nodes until the key's owner
        # changes; the pinned flight must go stale so its insert is
        # discarded on the old owner instead of orphaned there.
        request_key = None
        from repro.web.http import HttpRequest

        request = HttpRequest("GET", "/view_topic", {"topic": "topic-0"})
        request_key = request.cache_key()
        old_owner = awc.router.owner_name(request_key)
        flight, is_leader = awc.router.join_flight(request_key)
        assert is_leader
        new_owner = old_owner
        added = []
        for i in range(3, 10):
            name = f"node-{i}"
            awc.router.add_node(name)
            added.append(name)
            new_owner = awc.router.owner_name(request_key)
            if new_owner != old_owner:
                break
        try:
            if new_owner == old_owner:
                pytest.skip("key never re-homed (hash luck)")
            assert flight.stale
            entry = awc.router.insert(request, "late page", [], window=flight)
            assert entry.key == request_key
            old_node = awc.router.node(old_owner)
            assert old_node.cache.stats.stale_inserts == 1
            assert request_key not in old_node.cache.pages.keys()
        finally:
            awc.router.finish_flight(flight)
        assert awc.router.open_flights == 0
        assert_node_accounting_exact(awc)

    def test_waiters_join_the_pinned_node(self, cluster_notes_app):
        _db, _container, awc = cluster_notes_app
        flight, is_leader = awc.router.join_flight("some-key")
        assert is_leader
        again, leader_again = awc.router.join_flight("some-key")
        assert again is flight and not leader_again
        awc.router.finish_flight(flight)
        assert awc.router.open_flights == 0


class TestClusterStats:
    def test_aggregate_equals_sum_of_nodes(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        warm(container)
        stats = awc.stats
        node_stats = [node.cache.stats for node in awc.router.nodes()]
        assert stats.hits == sum(s.hits for s in node_stats)
        assert stats.misses == sum(s.misses for s in node_stats)
        assert stats.inserts == sum(s.inserts for s in node_stats)
        assert stats.lookups == (
            stats.hits + stats.semantic_hits + stats.misses + stats.uncacheable
        )
        assert 0.0 < stats.hit_rate < 1.0

    def test_every_int_counter_is_summed(self, cluster_notes_app):
        """The cluster view is generated from ``CacheStats``' fields: a
        counter added there can no longer be missing here."""
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        container.post("/score", {"id": "1", "score": "9"})
        warm(container)
        stats = awc.stats
        sources = [stats.frontend] + [
            node.cache.stats for node in awc.router.nodes()
        ]
        counters = [
            field.name
            for field in dataclasses.fields(CacheStats)
            if field.type in (int, "int")
        ]
        assert len(counters) >= 23
        for name in counters:
            assert getattr(stats, name) == sum(
                getattr(source, name) for source in sources
            ), name
        # The burst really moved counters on the shards and the front end.
        assert stats.hits and stats.invalidated_pages and stats.write_requests

    def test_dict_counters_merge_by_sub_key(self, cluster_notes_app):
        """``dooms_by_template`` is summed per write template across the
        shards, never replaced by one shard's dict."""
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        for i, topic in enumerate(TOPICS):
            container.post(
                "/add",
                {"id": str(100 + i), "topic": topic, "body": "n", "score": "0"},
            )
        snapshot = awc.cluster_snapshot()
        per_node = [node["stats"]["dooms_by_template"] for node in snapshot["nodes"]]
        assert sum(bool(dooms) for dooms in per_node) >= 2
        merged: dict[str, int] = {}
        for dooms in per_node:
            for template, count in dooms.items():
                merged[template] = merged.get(template, 0) + count
        assert snapshot["cluster"]["dooms_by_template"] == merged
        assert sum(merged.values()) == len(TOPICS)

    def test_write_requests_counted_once_not_per_node(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        assert awc.stats.write_requests == len(TOPICS)

    def test_snapshot_shape_and_consistency(self, cluster_notes_app):
        _db, container, awc = cluster_notes_app
        populate(container)
        warm(container)
        snapshot = awc.cluster_snapshot()
        assert set(snapshot) == {"cluster", "nodes", "bus", "membership"}
        assert all(
            view["state"] == "alive" for view in snapshot["membership"].values()
        )
        assert len(snapshot["nodes"]) == 3
        aggregate = snapshot["cluster"]
        assert aggregate["hits"] == sum(
            node["stats"]["hits"] for node in snapshot["nodes"]
        )
        assert snapshot["bus"]["seq"] == snapshot["bus"]["published"]
        assert aggregate["lookups"] == (
            aggregate["hits"]
            + aggregate["semantic_hits"]
            + aggregate["misses"]
            + aggregate["uncacheable"]
        )

    def test_coalesced_recorded_at_frontend(self, cluster_notes_app):
        _db, _container, awc = cluster_notes_app
        awc.cache.record_coalesced("/view_topic")
        assert awc.stats.coalesced_hits == 1
        assert awc.cluster_snapshot()["cluster"]["coalesced_hits"] == 1


class TestExternalBridge:
    def test_trigger_bridge_invalidates_across_the_cluster(self):
        from repro.cache.external import TriggerInvalidationBridge

        db, container = build_notes_app()
        awc = AutoWebCache(n_nodes=3)
        bridge = TriggerInvalidationBridge(awc.router, awc.collector).attach(db)
        awc.install(container.servlet_classes)
        try:
            populate(container)
            warm(container)
            # Maintenance script bypasses the woven app entirely.
            db.update("UPDATE notes SET body = ? WHERE id = ?", ("patched", 1))
            assert bridge.external_writes == 1
            page = container.get("/view_topic", {"topic": "topic-0"})
            assert "patched" in page.body
            assert_node_accounting_exact(awc)
        finally:
            awc.uninstall()
