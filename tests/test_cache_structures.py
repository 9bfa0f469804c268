"""Dependency table, page cache, analysis cache, and stats tests."""

import pytest

from repro.cache.analysis import QueryAnalysisEngine
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.dependency import DependencyTable
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.page_cache import PageCache
from repro.cache.replacement import LruPolicy
from repro.cache.stats import CacheStats
from repro.sql.template import templateize


def read_instance(sql, params):
    template, values = templateize(sql, params)
    return QueryInstance(template, values)


@pytest.fixture
def dep_table():
    return DependencyTable()


class TestDependencyTable:
    def test_register_and_lookup(self, dep_table):
        instance = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        dep_table.register("/page1", (instance,))
        pairs = dep_table.instances_for(instance.template)
        assert pairs == [("/page1", instance)]

    def test_multiple_pages_same_template(self, dep_table):
        i1 = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        i2 = read_instance("SELECT a FROM t WHERE b = ?", (2,))
        dep_table.register("/p1", (i1,))
        dep_table.register("/p2", (i2,))
        assert dep_table.template_count == 1
        assert len(dep_table.instances_for(i1.template)) == 2

    def test_same_page_multiple_vectors(self, dep_table):
        i1 = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        i2 = read_instance("SELECT a FROM t WHERE b = ?", (2,))
        dep_table.register("/p", (i1, i2))
        assert dep_table.registration_count == 2

    def test_unregister_removes_page(self, dep_table):
        instance = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        dep_table.register("/p", (instance,))
        dep_table.unregister("/p", (instance,))
        assert dep_table.template_count == 0
        assert dep_table.instances_for(instance.template) == []

    def test_unregister_unknown_is_noop(self, dep_table):
        instance = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        dep_table.unregister("/ghost", (instance,))

    def test_clear(self, dep_table):
        instance = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        dep_table.register("/p", (instance,))
        dep_table.clear()
        assert dep_table.read_templates() == []


class TestPageCache:
    def entry(self, key, deps=(), **kwargs):
        return PageEntry(key=key, body=f"body-{key}", dependencies=deps, **kwargs)

    def test_insert_and_hit(self):
        cache = PageCache()
        cache.insert(self.entry("/a"))
        entry, reason = cache.lookup("/a", now=0.0)
        assert entry is not None and reason == "hit"

    def test_cold_miss(self):
        cache = PageCache()
        entry, reason = cache.lookup("/nope", now=0.0)
        assert entry is None and reason == "cold"

    def test_invalidation_miss_reason(self):
        cache = PageCache()
        cache.insert(self.entry("/a"))
        assert cache.invalidate("/a")
        entry, reason = cache.lookup("/a", now=0.0)
        assert entry is None and reason == "invalidation"
        # The reason is consumed: a second lookup is cold again.
        _entry, reason = cache.lookup("/a", now=0.0)
        assert reason == "cold"

    def test_invalidate_absent_returns_false(self):
        cache = PageCache()
        assert not cache.invalidate("/ghost")

    def test_ttl_expiry(self):
        cache = PageCache()
        cache.insert(self.entry("/a", expires_at=30.0, semantic=True))
        entry, reason = cache.lookup("/a", now=10.0)
        assert entry is not None
        entry, reason = cache.lookup("/a", now=31.0)
        assert entry is None and reason == "expired"

    def test_dependencies_registered_and_unregistered(self):
        cache = PageCache()
        instance = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        cache.insert(self.entry("/a", deps=(instance,)))
        assert cache.dependencies.template_count == 1
        cache.invalidate("/a")
        assert cache.dependencies.template_count == 0

    def test_semantic_pages_skip_dependency_registration(self):
        cache = PageCache()
        instance = read_instance("SELECT a FROM t WHERE b = ?", (1,))
        cache.insert(
            self.entry("/a", deps=(instance,), semantic=True, expires_at=10.0)
        )
        assert cache.dependencies.template_count == 0

    def test_capacity_eviction(self):
        cache = PageCache(LruPolicy(capacity=2))
        cache.insert(self.entry("/a"))
        cache.insert(self.entry("/b"))
        evicted = cache.insert(self.entry("/c"))
        assert [e.key for e in evicted] == ["/a"]
        _entry, reason = cache.lookup("/a", now=0.0)
        assert reason == "capacity"
        assert len(cache) == 2

    def test_refresh_replaces_in_place(self):
        cache = PageCache()
        cache.insert(self.entry("/a"))
        refreshed = PageEntry(key="/a", body="new")
        cache.insert(refreshed)
        entry, reason = cache.lookup("/a", now=0.0)
        assert entry.body == "new" and reason == "hit"
        assert len(cache) == 1

    def test_clear(self):
        cache = PageCache()
        cache.insert(self.entry("/a"))
        cache.clear()
        assert len(cache) == 0
        _entry, reason = cache.lookup("/a", now=0.0)
        assert reason == "cold"

    def test_peek_does_not_touch(self):
        cache = PageCache(LruPolicy(capacity=2))
        cache.insert(self.entry("/a"))
        cache.insert(self.entry("/b"))
        cache.peek("/a")  # no recency update
        cache.insert(self.entry("/c"))
        assert "/a" not in cache


class TestAnalysisCache:
    def test_memoisation_and_stats(self):
        analysis = AnalysisCache(QueryAnalysisEngine())
        read, _ = templateize("SELECT a FROM t WHERE b = 1")
        write, _ = templateize("UPDATE t SET a = 2")
        first = analysis.analyse(read, write)
        second = analysis.analyse(read, write)
        assert first is second
        assert analysis.stats.hits == 1
        assert analysis.stats.misses == 1
        assert analysis.stats.hit_rate == 0.5
        assert analysis.entry_count == 1

    def test_growth_series(self):
        analysis = AnalysisCache(QueryAnalysisEngine())
        read, _ = templateize("SELECT a FROM t WHERE b = 1")
        for i, table in enumerate(("t", "u", "v")):
            write, _ = templateize(f"UPDATE {table} SET a = 2")
            analysis.analyse(read, write)
        assert analysis.stats.growth == [(1, 1), (2, 2), (3, 3)]

    def test_same_template_different_values_hits(self):
        analysis = AnalysisCache(QueryAnalysisEngine())
        r1, _ = templateize("SELECT a FROM t WHERE b = 1")
        r2, _ = templateize("SELECT a FROM t WHERE b = 99")
        w, _ = templateize("UPDATE t SET a = 5")
        analysis.analyse(r1, w)
        analysis.analyse(r2, w)
        assert analysis.entry_count == 1
        assert analysis.stats.hits == 1


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats()
        stats.record_hit("/a", semantic=False)
        stats.record_miss("/a", "cold")
        assert stats.hit_rate == 0.5

    def test_semantic_hits_counted(self):
        stats = CacheStats()
        stats.record_hit("/a", semantic=True)
        assert stats.semantic_hits == 1
        assert stats.hit_rate == 1.0

    def test_uncacheable_excluded_from_hit_rate(self):
        stats = CacheStats()
        stats.record_hit("/a", semantic=False)
        stats.record_uncacheable("/b")
        assert stats.hit_rate == 1.0
        assert stats.uncacheable == 1

    def test_per_type_breakdown(self):
        stats = CacheStats()
        stats.record_hit("/a", semantic=False)
        stats.record_miss("/a", "invalidation")
        stats.record_write("/w")
        a = stats.type_stats("/a")
        assert a.hits == 1 and a.misses_invalidation == 1
        assert a.reads == 2 and a.hit_rate == 0.5
        assert stats.type_stats("/w").writes == 1

    def test_unknown_miss_reason_rejected(self):
        stats = CacheStats()
        with pytest.raises(ValueError):
            stats.record_miss("/a", "mystery")

    def test_empty_rates_are_zero(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.type_stats("/a").hit_rate == 0.0
