"""Admission on the cache insert path: the facade-level contract.

A denied insert must be pure pass-through -- no bytes, no dependency
rows, no containment edges, no stats drift -- while the computed body is
still served (and still satisfies coalesced waiters).  Plus the new
lock-consistent counters (per-template dooms, per-class byte totals,
verdicts), the cluster-wide shared policy, and the ``/_metrics``
exposition of the verdict counters.
"""

from __future__ import annotations

import pytest

from repro.admission.policy import (
    ADMIT,
    DENY,
    AdaptiveAdmission,
    AdmissionPolicy,
)
from repro.cache.api import Cache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.stats import CacheStats
from repro.cluster.awc import ClusterAutoWebCache
from repro.obs.exposition import ADMISSION_METRIC
from repro.obs.histogram import MetricsHub
from repro.obs.servlets import METRICS_URI, mount_observability
from repro.obs.tracer import Tracer
from repro.web.container import ServletContainer

from tests.conftest import build_notes_app


class DenyAll(AdmissionPolicy):
    """Deterministic pass-through: every insert denied."""

    def verdict(self, cls: str, nbytes: int) -> str:
        return DENY


class TestDeniedInsertLeavesNoTrace:
    def test_denied_insert_stores_nothing(self):
        db, container = build_notes_app()
        awc = AutoWebCache(admission=DenyAll())
        awc.install(container.servlet_classes)
        try:
            container.post("/add", {"id": "1", "topic": "a", "body": "x"})
            response = container.get("/view_topic", {"topic": "a"})
            assert response.status == 200
            assert "x" in response.body
            # Pass-through: no entry, no bytes, no dependency rows.
            assert len(awc.cache.pages) == 0
            assert awc.cache.pages.total_bytes == 0
            assert awc.cache.pages.dependencies.read_templates() == []
            stats = awc.stats
            assert stats.denied == 1
            assert stats.admitted == 0
            assert stats.inserts == 0
            assert stats.inserted_bytes_by_class == {}
            # The next read misses again and still serves correctly.
            again = container.get("/view_topic", {"topic": "a"})
            assert again.body == response.body
            assert stats.misses_cold == 2
        finally:
            awc.uninstall()

    def test_denied_insert_still_feeds_waiters(self):
        # The leader's denied insert must still publish the computed
        # entry on the flight: waiters serve it once, no recompute storm.
        cache = Cache(admission=DenyAll())
        flight, is_leader = cache.join_flight("/k")
        assert is_leader
        entry, stored = cache.insert_key("/k", "body", [], window=flight)
        assert not stored
        assert flight.entry is entry
        cache.finish_flight(flight)
        assert cache.wait_flight(flight) is entry
        assert len(cache.pages) == 0

    def test_admitted_insert_still_stores(self):
        cache = Cache()  # default AdmitAll
        entry, stored = cache.insert_key("/k", "body", [])
        assert stored
        assert cache.pages.peek("/k") is entry
        assert cache.stats.admitted == 1

    def test_stale_insert_never_reaches_the_policy(self):
        # The staleness check runs first: a stale insert is discarded
        # without consuming an admission verdict.
        policy = DenyAll()
        cache = Cache(admission=policy)
        window = cache.begin_window("/k")
        window.stale = True
        _entry, stored = cache.insert_key("/k", "body", [], window=window)
        cache.end_window(window)
        assert not stored
        assert cache.stats.stale_inserts == 1
        assert cache.stats.denied == 0


class TestStatsCounters:
    def test_record_admission_rejects_unknown_verdict(self):
        with pytest.raises(ValueError):
            CacheStats().record_admission("maybe")

    def test_dooms_attributed_to_write_template(self, cached_notes_app):
        db, container, awc = cached_notes_app
        container.post("/add", {"id": "1", "topic": "a", "body": "x"})
        container.get("/view_topic", {"topic": "a"})
        container.post("/score", {"id": "1", "score": "9"})
        dooms = awc.stats.snapshot()["dooms_by_template"]
        assert sum(dooms.values()) >= 1
        assert any("UPDATE notes" in template for template in dooms)

    def test_per_class_insert_and_evict_byte_totals(self):
        cache = Cache(replacement="lru", max_bytes=1)  # one entry max
        entry_a, _ = cache.insert_key("/a?x=1", "A" * 10, [])
        entry_b, _ = cache.insert_key("/b?x=1", "B" * 20, [])
        snapshot = cache.stats.snapshot()
        inserted = snapshot["inserted_bytes_by_class"]
        assert inserted == {"/a": entry_a.size, "/b": entry_b.size}
        # /b's insert evicted /a: the victim's bytes land in its class.
        assert snapshot["evicted_bytes_by_class"] == {"/a": entry_a.size}

    def test_verdicts_in_snapshot(self):
        stats = CacheStats()
        stats.record_admission("admitted")
        stats.record_admission("denied")
        stats.record_admission("denied")
        stats.record_admission("shadow_denied")
        snapshot = stats.snapshot()
        assert snapshot["admitted"] == 1
        assert snapshot["denied"] == 2
        assert snapshot["shadow_denied"] == 1


class TestModelFeeds:
    def test_check_key_feeds_lookup_observations(self):
        policy = AdaptiveAdmission()
        cache = Cache(admission=policy)
        cache.check_key("/p?x=1", "/p")
        cache.insert_key("/p?x=1", "body", [], ttl_uri="/p")
        cache.check_key("/p?x=1", "/p")
        row = policy.model.snapshot()["/p"]
        assert row["lookups"] == 2
        assert 0.0 < row["hit_prob"] < 1.0  # one miss then one hit

    def test_recompute_observed_from_flight_open_time(self):
        now = [100.0]
        policy = AdaptiveAdmission()
        cache = Cache(clock=lambda: now[0], admission=policy)
        flight, _leader = cache.join_flight("/p?x=1")
        now[0] = 100.25
        cache.insert_key("/p?x=1", "body", [], window=flight, ttl_uri="/p")
        cache.finish_flight(flight)
        row = policy.model.snapshot()["/p"]
        assert row["recompute_seconds"] == pytest.approx(0.25)

    def test_dooms_observed_per_class(self, cached_notes_app):
        db, container, awc = cached_notes_app
        policy = AdaptiveAdmission()
        awc.cache.admission = policy
        container.post("/add", {"id": "1", "topic": "a", "body": "x"})
        container.get("/view_topic", {"topic": "a"})
        container.post("/add", {"id": "2", "topic": "a", "body": "y"})
        assert policy.model.snapshot()["/view_topic"]["dooms"] == 1


class TestClusterSharedPolicy:
    def test_one_policy_instance_across_all_nodes(self):
        db, container = build_notes_app()
        policy = AdaptiveAdmission(min_observations=5)
        awc = ClusterAutoWebCache(n_nodes=4, admission=policy)
        awc.install(container.servlet_classes)
        try:
            assert awc.router.admission is policy
            for node in awc.router.nodes():
                assert node.cache.admission is policy
            container.post("/add", {"id": "1", "topic": "a", "body": "x"})
            for note_id in range(1, 2):
                container.get("/view_note", {"id": str(note_id)})
            # Lookups recorded on whichever shard owns the key feed the
            # one shared model.
            assert policy.model.observations("/view_note") >= 1
        finally:
            awc.uninstall()

    def test_cluster_stats_sum_admission_verdicts(self):
        db, container = build_notes_app()
        awc = ClusterAutoWebCache(n_nodes=2)
        awc.install(container.servlet_classes)
        try:
            container.post("/add", {"id": "1", "topic": "a", "body": "x"})
            container.get("/view_topic", {"topic": "a"})
            container.get("/view_note", {"id": "1"})
            stats = awc.stats
            assert stats.admitted == stats.inserts == 2
            assert stats.denied == 0
            per_node = sum(
                node.cache.stats.admitted for node in awc.router.nodes()
            )
            assert per_node == 2
            aggregate = awc.stats.snapshot()["cluster"]
            assert aggregate["admitted"] == 2
            # dict-valued counters merge by sub-key across nodes.
            merged = aggregate["inserted_bytes_by_class"]
            assert set(merged) == {"/view_topic", "/view_note"}
        finally:
            awc.uninstall()


class TestMetricsExposition:
    def test_metrics_endpoint_renders_verdict_counters(self):
        container = ServletContainer()
        hub = MetricsHub()
        stats = CacheStats()
        stats.record_admission("admitted")
        stats.record_admission("denied")
        mount_observability(container, hub, Tracer(), stats=stats)
        response = container.get(METRICS_URI)
        assert response.status == 200
        assert f'{ADMISSION_METRIC}{{verdict="admitted"}} 1' in response.body
        assert f'{ADMISSION_METRIC}{{verdict="denied"}} 1' in response.body
        assert f'{ADMISSION_METRIC}{{verdict="shadow_denied"}} 0' in response.body

    def test_metrics_endpoint_without_stats_omits_verdicts(self):
        container = ServletContainer()
        mount_observability(container, MetricsHub(), Tracer())
        response = container.get(METRICS_URI)
        assert response.status == 200
        assert ADMISSION_METRIC not in response.body

    def test_counters_reflect_serve_time_state(self):
        # The servlet snapshots stats per scrape, not at mount time.
        container = ServletContainer()
        stats = CacheStats()
        mount_observability(container, MetricsHub(), Tracer(), stats=stats)
        assert f'{ADMISSION_METRIC}{{verdict="denied"}} 0' in (
            container.get(METRICS_URI).body
        )
        stats.record_admission("denied")
        assert f'{ADMISSION_METRIC}{{verdict="denied"}} 1' in (
            container.get(METRICS_URI).body
        )


class TestAdaptiveEndToEnd:
    def test_churny_class_goes_pass_through_stable_class_stays(self):
        db, container = build_notes_app()
        policy = AdaptiveAdmission(margin=0.1, min_observations=10)
        awc = AutoWebCache(admission=policy)
        awc.install(container.servlet_classes)
        try:
            container.post("/add", {"id": "1", "topic": "a", "body": "x"})
            note_id = 1
            for round_ in range(30):
                container.get("/view_topic", {"topic": "a"})  # always doomed
                note_id += 1
                container.post("/add", {
                    "id": str(note_id), "topic": "a", "body": f"b{round_}",
                })
                container.get("/view_note", {"id": "1"})  # always hits
            assert policy.is_demoted("/view_topic")
            assert not policy.is_demoted("/view_note")
            stats = awc.stats
            assert stats.denied > 0
            assert stats.admitted == stats.inserts
            # The stable page is still cached and correct.
            assert any(
                key.startswith("/view_note") for key in awc.cache.pages.keys()
            )
            assert policy.snapshot()["/view_topic"]["state"] == "pass-through"
        finally:
            awc.uninstall()

    def test_verdict_constants_are_the_counter_names(self):
        assert ADMIT == "admitted"
        assert DENY == "denied"
