"""Byte-bounded page cache tests (size-aware eviction)."""

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import PageEntry
from repro.cache.page_cache import PageCache
from repro.cache.replacement import LruPolicy, make_policy, UnboundedPolicy
from repro.errors import CacheError

from tests.conftest import build_notes_app, node_store


def entry(key, size):
    return PageEntry(key=key, body="x" * size)


class TestBytePageCache:
    def test_total_bytes_tracked(self):
        cache = PageCache(LruPolicy(None), max_bytes=100)
        cache.insert(entry("/a", 30))
        cache.insert(entry("/b", 40))
        assert cache.total_bytes == 70

    def test_eviction_when_bytes_exceeded(self):
        cache = PageCache(LruPolicy(None), max_bytes=100)
        cache.insert(entry("/a", 60))
        cache.insert(entry("/b", 30))
        evicted = cache.insert(entry("/c", 50))
        assert [e.key for e in evicted] == ["/a"]  # LRU order
        assert cache.total_bytes == 80
        _e, reason = cache.lookup("/a", now=0.0)
        assert reason == "capacity"

    def test_access_refreshes_byte_lru(self):
        cache = PageCache(LruPolicy(None), max_bytes=100)
        cache.insert(entry("/a", 60))
        cache.insert(entry("/b", 30))
        cache.lookup("/a", now=0.0)  # /a is now most recent
        evicted = cache.insert(entry("/c", 20))  # 110 bytes > 100
        assert [e.key for e in evicted] == ["/b"]
        assert cache.total_bytes == 80

    def test_invalidation_releases_bytes(self):
        cache = PageCache(LruPolicy(None), max_bytes=100)
        cache.insert(entry("/a", 60))
        cache.invalidate("/a")
        assert cache.total_bytes == 0

    def test_refresh_replaces_size(self):
        cache = PageCache(LruPolicy(None), max_bytes=100)
        cache.insert(entry("/a", 60))
        cache.insert(entry("/a", 10))
        assert cache.total_bytes == 10

    def test_oversized_sole_entry_not_evicted(self):
        cache = PageCache(LruPolicy(None), max_bytes=10)
        cache.insert(entry("/huge", 100))
        assert len(cache) == 1  # sole fresh entry is kept

    def test_count_and_byte_bounds_compose(self):
        cache = PageCache(LruPolicy(2), max_bytes=1000)
        cache.insert(entry("/a", 10))
        cache.insert(entry("/b", 10))
        evicted = cache.insert(entry("/c", 10))
        assert [e.key for e in evicted] == ["/a"]  # count bound triggered first


class TestFactoryOrderOnly:
    def test_order_only_unbounded_becomes_lru(self):
        policy = make_policy("unbounded", None, order_only=True)
        assert isinstance(policy, LruPolicy)
        assert policy.capacity is None

    def test_plain_unbounded_unchanged(self):
        assert isinstance(make_policy("unbounded", None), UnboundedPolicy)

    def test_order_only_respects_name(self):
        policy = make_policy("lru", None, order_only=True)
        assert isinstance(policy, LruPolicy)
        assert policy.capacity is None

    def test_capacityless_policy_never_count_evicts(self):
        policy = LruPolicy(None)
        for i in range(100):
            policy.on_insert(f"k{i}")
        assert not policy.needs_eviction

    def test_zero_capacity_still_rejected(self):
        with pytest.raises(CacheError):
            LruPolicy(0)


class TestEndToEndByteBound:
    def test_awc_with_byte_budget(self):
        db, container = build_notes_app()
        awc = AutoWebCache(max_bytes=200)
        awc.install(container.servlet_classes)
        try:
            for i in range(6):
                container.post(
                    "/add",
                    {"id": str(i), "topic": f"t{i}", "body": "b" * 30},
                )
            for i in range(6):
                container.get("/view_topic", {"topic": f"t{i}"})
            assert node_store(awc).pages.total_bytes <= 200
            assert awc.stats.evictions > 0
            # The cache still serves correct content for live entries.
            key_topic = "t5"
            page = container.get("/view_topic", {"topic": key_topic})
            assert key_topic in page.body
        finally:
            awc.uninstall()
