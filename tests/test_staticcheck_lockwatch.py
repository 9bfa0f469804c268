"""Lock order, checked at acquire (``REPRO_LOCKWATCH=1``).

Unit-level coverage of the checked lock (ordering, reentrancy, same-name
nesting, failed try-acquires, unknown names), the production lock's
C-speed shape, one inversion through the real cluster classes, and an
end-to-end run: threaded traffic through the real woven cache must
acquire nothing out of order.
"""

from __future__ import annotations

import _thread
import threading

import pytest

from repro.locks import VIOLATIONS, CheckedRLock, LockOrderError, NamedRLock

from tests.conftest import node_store

pytestmark = [pytest.mark.staticcheck]


@pytest.fixture
def provoked(monkeypatch):
    """Locks built in the test are checked.  Yields a callable listing
    the violations recorded since the test began; they are taken off
    the session-wide list afterwards (the session fails on any left)."""
    monkeypatch.setenv("REPRO_LOCKWATCH", "1")
    before = len(VIOLATIONS)
    yield lambda: VIOLATIONS[before:]
    del VIOLATIONS[before:]


def test_ordered_acquisition_is_clean(provoked):
    router = NamedRLock("cluster-router")
    bus = NamedRLock("invalidation-bus")
    facade = NamedRLock("cache-facade")
    assert isinstance(router, CheckedRLock)
    with router:
        with bus:
            with facade:
                pass
    with bus:
        with facade:
            pass
    assert provoked() == []


def test_rank_inversion_is_flagged(provoked):
    outer = NamedRLock("cache-facade")
    inner = NamedRLock("invalidation-bus")
    with outer:
        with pytest.raises(LockOrderError, match="'invalidation-bus'"):
            with inner:
                pass
        # Refused before acquiring: the inner lock is free.
        assert not inner._is_owned()
    [violation] = provoked()
    assert "'cache-facade' (rank 2)" in violation


def test_violation_on_a_swallowing_thread_is_still_recorded(provoked):
    outer = NamedRLock("cache-facade")
    inner = NamedRLock("cluster-router")

    def swallowing():
        try:
            with outer:
                with inner:
                    pass
        except LockOrderError:
            pass  # as a pump thread's bare except would

    thread = threading.Thread(target=swallowing, name="pump")
    thread.start()
    thread.join()
    [violation] = provoked()
    assert violation.startswith("[pump]")


def test_reentrant_reacquisition_is_not_an_edge(provoked):
    lock = NamedRLock("cache-facade")
    earlier = NamedRLock("invalidation-bus")
    with lock:
        with lock:
            pass
        # The inner release left the lock held: it still orders.
        with pytest.raises(LockOrderError):
            with earlier:
                pass
    with earlier:
        with lock:
            with earlier:  # reentrant under a later rank: allowed
                pass
    assert len(provoked()) == 1


def test_same_name_distinct_instances_nested_is_flagged(provoked):
    first = NamedRLock("cache-facade")
    second = NamedRLock("cache-facade")
    with first:
        with pytest.raises(LockOrderError, match="while holding 'cache-facade'"):
            with second:
                pass
    assert len(provoked()) == 1


def test_failed_try_acquire_holds_nothing(provoked):
    lock = NamedRLock("cache-facade")
    earlier = NamedRLock("invalidation-bus")
    started = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            started.set()
            release.wait(5)

    thread = threading.Thread(target=holder)
    thread.start()
    started.wait(5)
    try:
        assert lock.acquire(blocking=False) is False
        # A phantom "held" entry from the failed attempt would make this
        # earlier-ranked acquisition an inversion.
        with earlier:
            pass
    finally:
        release.set()
        thread.join()
    assert provoked() == []


def test_unknown_lock_name_is_rejected_at_construction(provoked):
    with pytest.raises(ValueError, match="LOCK_ORDER"):
        NamedRLock("badapp-vault")


def test_production_lock_is_a_c_rlock_with_a_name(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKWATCH", raising=False)
    lock = NamedRLock("cache-facade")
    assert type(lock) is NamedRLock
    assert (lock.name, lock.rank) == ("cache-facade", 2)
    for name in ("__enter__", "__exit__", "acquire", "release"):
        assert getattr(type(lock), name) is getattr(_thread.RLock, name)
    with lock:
        with lock:
            assert lock._is_owned()
    assert not lock._is_owned()


def test_router_join_under_a_node_cache_lock_is_refused(provoked):
    from repro.cache.autowebcache import AutoWebCache

    awc = AutoWebCache(n_nodes=2)
    node = awc.router.nodes()[0]
    with node.cache.lock:
        with pytest.raises(LockOrderError, match="'cluster-router'"):
            awc.router.add_node("late")
    [violation] = provoked()
    assert "'cache-facade'" in violation
    # Nothing was half-joined; the same call in order succeeds.
    assert awc.router.add_node("late").name == "late"


@pytest.mark.concurrency
def test_threaded_woven_cache_traffic_takes_no_bad_edges(provoked):
    from repro.apps.rubis.app import build_rubis
    from repro.cache.autowebcache import AutoWebCache

    app = build_rubis()
    awc = AutoWebCache()
    assert isinstance(node_store(awc).lock, CheckedRLock)
    awc.install(app.container.servlet_classes)
    try:
        def client(offset: int) -> None:
            for i in range(20):
                item = str((i + offset) % 5 + 1)
                app.container.get("/rubis/view_item", {"item": item})
                app.container.get("/rubis/view_bid_history", {"item": item})
                if i % 5 == 4:
                    app.container.post(
                        "/rubis/store_bid",
                        {"item": item, "user": "1", "bid": str(200.0 + i)},
                    )

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        awc.uninstall()

    assert awc.stats.hits > 0 and awc.stats.invalidated_pages > 0
    assert provoked() == []
