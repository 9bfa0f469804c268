"""Dynamic lockset mode: the woven lock-order recorder.

Unit-level coverage of the recorder semantics (ordering, reentrancy,
same-name nesting, failed try-acquires, static diffing) plus an
end-to-end run: threaded traffic through the real woven cache must take
zero rank-inverting acquisition edges.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.locks import NamedRLock
from repro.staticcheck.lockwatch import LockWatchRecorder, watch_locks

pytestmark = [pytest.mark.staticcheck]

if os.environ.get("REPRO_LOCKWATCH") == "1":
    # Under `make stress-lockwatch` the session fixture has already
    # woven NamedRLock; these tests weave a recorder of their own and
    # deliberately seed violations, which would fail the session-level
    # zero-violation assertion.  The rest of the stress suite provides
    # the real traffic the session recorder watches.
    pytestmark.append(
        pytest.mark.skip(reason="session-level lockwatch recorder active")
    )


@pytest.fixture
def watched():
    recorder = LockWatchRecorder()
    weaver = watch_locks(recorder)
    try:
        yield recorder
    finally:
        weaver.unweave()


def test_ordered_acquisition_is_clean(watched):
    outer = NamedRLock("invalidation-bus")
    inner = NamedRLock("cache-facade")
    with outer:
        with inner:
            pass
    assert watched.acquisitions == 2
    assert watched.snapshot_violations() == []
    assert ("invalidation-bus", "cache-facade") in watched.edge_set()


def test_rank_inversion_is_flagged(watched):
    outer = NamedRLock("cache-facade")
    inner = NamedRLock("invalidation-bus")
    with outer:
        with inner:
            pass
    violations = watched.snapshot_violations()
    assert len(violations) == 1
    assert violations[0].kind == "rank"
    assert violations[0].held == "cache-facade"
    assert violations[0].acquired == "invalidation-bus"
    assert "rank" in violations[0].describe()


def test_reentrant_reacquisition_is_not_an_edge(watched):
    lock = NamedRLock("cache-facade")
    with lock:
        with lock:
            pass
    assert watched.snapshot_violations() == []
    assert watched.edge_set() == set()
    # Only the first acquisition of the instance counts.
    assert watched.acquisitions == 1


def test_same_name_distinct_instances_nested_is_flagged(watched):
    first = NamedRLock("cache-facade")
    second = NamedRLock("cache-facade")
    with first:
        with second:
            pass
    violations = watched.snapshot_violations()
    assert [v.kind for v in violations] == ["same-name"]
    assert "self-deadlock" in violations[0].describe()


def test_failed_try_acquire_holds_nothing(watched):
    lock = NamedRLock("invalidation-bus")
    other = NamedRLock("cache-facade")
    started = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            started.set()
            release.wait(5)

    thread = threading.Thread(target=holder)
    thread.start()
    started.wait(5)
    assert lock.acquire(blocking=False) is False
    # The failed attempt must not leave a phantom "held" entry that
    # would turn this acquisition into an invalidation-bus ->
    # cache-facade edge on this thread.
    with other:
        pass
    release.set()
    thread.join()
    assert ("invalidation-bus", "cache-facade") not in watched.edge_set()
    assert watched.snapshot_violations() == []


def test_diff_against_static_reports_unseen_edges(watched):
    outer = NamedRLock("cluster-router")
    inner = NamedRLock("cache-facade")
    with outer:
        with inner:
            pass
    assert watched.diff_against_static(set()) == {("cluster-router", "cache-facade")}
    assert watched.diff_against_static({("cluster-router", "cache-facade")}) == set()


@pytest.mark.concurrency
def test_threaded_woven_cache_traffic_takes_no_bad_edges(watched):
    from repro.apps.rubis.app import build_rubis
    from repro.cache.autowebcache import AutoWebCache

    app = build_rubis()
    awc = AutoWebCache()
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

    assert watched.acquisitions > 0, "the woven cache never took a lock"
    violations = watched.snapshot_violations()
    assert violations == [], "\n".join(v.describe() for v in violations)
