"""Cache-core accounting under concurrent mutation.

The satellite bugfix contract: concurrent ``invalidate()`` during
``lookup()``/``insert()`` must never corrupt ``total_bytes``, the
dependency table or the counters.  The structures take no lock of their
own -- the ``Cache`` facade's lock is the only one -- so these tests
hammer the facade from real threads and then assert the accounting
invariants exactly.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.cache.entry import QueryInstance
from repro.cache.page_cache import PageCache
from repro.sql.template import templateize
from repro.web.http import HttpRequest

from tests.conftest import bare_store


def _instance(note_id: int) -> QueryInstance:
    template, values = templateize(
        "SELECT body FROM notes WHERE id = ?", (note_id,)
    )
    return QueryInstance(template, values)


def assert_accounting_exact(pages: PageCache) -> None:
    """total_bytes and the dependency table match the entries exactly."""
    entries = pages.entries()
    assert pages.total_bytes == sum(entry.size for entry in entries)
    live_keys = set(pages.keys())
    registered_keys = {
        page_key
        for template in pages.dependencies.read_templates()
        for page_key, _vector in pages.dependencies.instances_for(template)
    }
    # No orphan registrations (evicted/invalidated pages linger) and no
    # missing registrations (live non-semantic pages untracked).
    assert registered_keys <= live_keys
    expected = {e.key for e in entries if not e.semantic and e.dependencies}
    assert registered_keys == expected


@pytest.mark.concurrency
def test_invalidate_racing_lookup_and_insert_keeps_bytes_exact():
    cache = bare_store()
    n_threads = 8
    rounds = 300
    keys = [f"/page?id={i}" for i in range(16)]
    barrier = threading.Barrier(n_threads)
    errors: list[Exception] = []

    def worker(index: int) -> None:
        rng = random.Random(index)
        try:
            barrier.wait(timeout=5)
            for round_no in range(rounds):
                key = rng.choice(keys)
                action = rng.random()
                if action < 0.45:
                    note_id = int(key.split("=")[1])
                    body = "x" * rng.randint(1, 64)
                    cache.insert_key(key, body, [_instance(note_id)])
                elif action < 0.8:
                    cache.check_key(key, "/page")
                else:
                    cache.invalidate_key(key)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert_accounting_exact(cache.pages)


@pytest.mark.concurrency
def test_cache_facade_threaded_insert_invalidate_consistent():
    cache = bare_store()
    n_threads = 8
    rounds = 150
    barrier = threading.Barrier(n_threads)
    errors: list[Exception] = []

    def worker(index: int) -> None:
        rng = random.Random(1000 + index)
        try:
            barrier.wait(timeout=5)
            for _ in range(rounds):
                note_id = rng.randrange(8)
                request = HttpRequest("GET", "/view", {"id": str(note_id)})
                action = rng.random()
                if action < 0.5:
                    cache.check(request)
                elif action < 0.85:
                    cache.insert(
                        request,
                        "b" * rng.randint(1, 40),
                        [_instance(note_id)],
                    )
                else:
                    cache.invalidate_key(request.cache_key())
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert_accounting_exact(cache.pages)
    # Read-lookup arithmetic is exact even under the barrage.
    stats = cache.stats
    assert stats.lookups == (
        stats.hits + stats.semantic_hits + stats.misses + stats.uncacheable
    )


@pytest.mark.concurrency
def test_stats_counters_exact_under_threads():
    # A full LRU store, so every insert of a fresh key evicts exactly
    # one entry.  "/hot" is never the victim: each thread hits it every
    # third round, so at most 8 x 3 inserts land between two hits --
    # far fewer than the 63 it takes to age it out.
    capacity = 64
    cache = bare_store(replacement="lru", capacity=capacity)
    for i in range(capacity - 1):
        cache.insert_key(f"/warm{i}", "w", [])
    cache.insert_key("/hot", "h", [])
    n_threads = 8
    per_thread = 500
    barrier = threading.Barrier(n_threads)

    def worker(index: int) -> None:
        barrier.wait(timeout=5)
        uri = f"/u{index % 3}"
        for i in range(per_thread):
            if i % 3 == 0:
                cache.check_key("/hot", uri)
            elif i % 3 == 1:
                cache.check_key(f"/never{index}", uri)
            else:
                cache.record_uncacheable(HttpRequest("GET", uri, {}))
            cache.insert_key(f"/fresh{index}-{i}", "f", [])

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    total = n_threads * per_thread
    stats = cache.stats
    assert stats.lookups == total
    assert stats.inserts == total + capacity
    assert stats.evictions == total
    assert stats.hits + stats.misses_cold + stats.uncacheable == total
    per_type_total = sum(t.reads for t in stats.by_type.values())
    assert per_type_total == total


def test_bounded_cache_eviction_accounting_threaded():
    """Byte-bounded cache under threads: bound respected, bytes exact."""
    cache = bare_store(replacement="lru", max_bytes=500)
    errors: list[Exception] = []

    def worker(index: int) -> None:
        rng = random.Random(index)
        try:
            for i in range(200):
                key = f"/p{rng.randrange(32)}"
                cache.insert_key(key, "y" * rng.randint(10, 50), [_instance(index)])
                cache.check_key(key, "/p")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert cache.pages.total_bytes <= 500
    assert_accounting_exact(cache.pages)
