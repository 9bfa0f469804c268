"""Replacement policy tests (the paper's future-work extension)."""

import pytest

from repro.cache.replacement import LruPolicy, UnboundedPolicy, make_policy
from repro.errors import CacheError


class TestUnbounded:
    def test_never_needs_eviction(self):
        policy = UnboundedPolicy()
        for i in range(100):
            policy.on_insert(f"k{i}")
        assert not policy.needs_eviction

    def test_victim_raises(self):
        policy = UnboundedPolicy()
        policy.on_insert("k")
        with pytest.raises(CacheError):
            policy.victim()

    def test_remove(self):
        # The page store holds the keys; the policy keeps no copy.
        policy = UnboundedPolicy()
        policy.on_insert("k")
        assert vars(policy) == {}
        policy.on_remove("k")
        policy.on_remove("never inserted")
        assert vars(policy) == {}


class TestLru:
    def test_victim_is_least_recently_used(self):
        policy = LruPolicy(capacity=2)
        policy.on_insert("a")
        policy.on_insert("b")
        assert policy.victim() == "a"

    def test_access_refreshes_recency(self):
        policy = LruPolicy(capacity=2)
        policy.on_insert("a")
        policy.on_insert("b")
        policy.on_access("a")
        assert policy.victim() == "b"

    def test_needs_eviction_over_capacity(self):
        policy = LruPolicy(capacity=2)
        for k in "abc":
            policy.on_insert(k)
        assert policy.needs_eviction
        policy.on_remove(policy.victim())
        assert not policy.needs_eviction

    def test_invalid_capacity(self):
        with pytest.raises(CacheError):
            LruPolicy(capacity=0)

    def test_access_unknown_key_is_noop(self):
        policy = LruPolicy(capacity=2)
        policy.on_access("ghost")
        assert len(policy) == 0


class TestFactory:
    def test_by_name(self):
        assert isinstance(make_policy("LRU", 5), LruPolicy)
        assert isinstance(make_policy("unbounded", None), UnboundedPolicy)

    def test_none_capacity_is_unbounded(self):
        assert isinstance(make_policy("lru", None), UnboundedPolicy)

    def test_unknown_name(self):
        # FIFO and LFU were dropped: LRU is the only bounded policy.
        for name in ("magic", "fifo", "lfu"):
            with pytest.raises(CacheError):
                make_policy(name, 5)
