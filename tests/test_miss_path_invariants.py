"""What a woven request may *not* do, counted -- no timing anywhere.

The weaver decides once per configuration which advice applies where
(``tests/test_aop_reference.py`` checks it decides right); these tests
pin the other half: once ``install()`` has run and the plans are warm,
a request re-decides nothing and allocates nothing it will not use --
and takes the cache's one lock once per facade call, however many read
templates a write has to consider.
"""

from __future__ import annotations

import concurrent.futures
import fnmatch
import json
import threading
from pathlib import Path

import pytest

import repro.aop.weaver as weaver
from bench.workloads import WORKLOADS, build_app, generate
from repro.aop.joinpoint import JoinPoint
from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.analysis import InvalidationPolicy
from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import QueryInstance
from repro.cluster.router import ClusterRouter
from repro.locks import NamedRLock
from repro.sql.template import templateize
from repro.web.http import HttpRequest

from tests.conftest import bare_store, build_notes_app
from tests.test_async_server import (
    deliver,
    get,
    notes_server,
    post,
    split_responses,
)


@pytest.fixture
def woven_rubis():
    app = build_rubis(RubisDataset(n_users=20, n_items=30))
    awc = AutoWebCache()
    awc.install(app.servlet_classes)
    try:
        yield app, awc
    finally:
        awc.uninstall()


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Replace ``owner.name`` with a counting pass-through."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def lock_rounds(monkeypatch) -> list[int]:
    """Running count of ``NamedRLock`` acquisitions, reentrant ones
    included (reset it to 0 before the part being counted).  Every lock
    round in ``src/`` is a ``with`` statement, so this counts
    ``__enter__`` on the class the facade's lock actually is (the C
    lock or its order-checked subclass)."""
    return count_calls(monkeypatch, type(NamedRLock("cache-facade")), "__enter__")


def test_a_warm_hit_and_miss_match_no_patterns_and_build_one_joinpoint_per_layer(
    woven_rubis, monkeypatch
):
    app, awc = woven_rubis
    # Warm: every dispatcher on the path resolves its plan once.
    app.container.get("/rubis/view_item", {"item": "1"})
    matched = count_calls(monkeypatch, fnmatch, "fnmatchcase")
    built = [0]

    class CountedJoinPoint(JoinPoint):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(weaver, "JoinPoint", CountedJoinPoint)
    queries_before = app.database.stats.queries
    miss = app.container.get("/rubis/view_item", {"item": "2"})
    queries = app.database.stats.queries - queries_before
    assert miss.status == 200 and queries > 0 and awc.stats.misses == 2
    # One around layer (the caching advice) on the handler and on each
    # intercepted statement: one join point each, no spare.
    assert built[0] == 1 + queries
    built[0] = 0
    hit = app.container.get("/rubis/view_item", {"item": "2"})
    assert hit.body == miss.body and awc.stats.hits == 1
    assert built[0] == 1
    assert matched[0] == 0


def test_a_miss_nobody_waits_on_builds_no_event_condition_or_future(monkeypatch):
    with notes_server(start=False) as (server, _container, awc):
        made = [
            count_calls(monkeypatch, threading, "Event"),
            count_calls(monkeypatch, threading, "Condition"),
            count_calls(monkeypatch, concurrent.futures.Future, "__init__"),
        ]
        payload, _closed = deliver(
            server, [get("/view_note?id=1"), get("/view_note?id=1")]
        )
        assert split_responses(payload) == [(200, b"<p>x|3</p>")] * 2
        assert (awc.stats.misses, server.stats.slow_requests) == (1, 1)
        assert server.stats.fast_hits == 1
        assert made == [[0], [0], [0]]
        # ... and the waiter that does come still gets its event.
        flight, is_leader = awc.cache.join_flight("/k")
        assert is_leader and made[0] == [0]
        assert awc.cache.join_flight("/k") == (flight, False)
        assert made[0] == [1]
        awc.cache.finish_flight(flight)
        assert awc.cache.wait_flight(flight) is None


def _bidding_replay(**facade) -> dict:
    """The counters 2 000 requests of the bidding mix leave behind."""
    workload = WORKLOADS["rubis_bidding"]
    app, awc = build_app(workload), AutoWebCache(**workload.cache, **facade)
    awc.install(app.servlet_classes)
    try:
        for request in generate(workload, 11, "closed", 2000):
            app.container.handle(
                HttpRequest(request.method, request.uri, dict(request.params))
            )
        return json.loads(json.dumps(awc.stats.snapshot()["cluster"]))
    finally:
        awc.uninstall()


def _fixture(name: str) -> dict:
    return json.loads((Path(__file__).parent / "fixtures" / name).read_text())


def test_stats_after_a_fixed_replay_are_the_parents_field_by_field():
    """2 000 requests of the bidding mix (reads, writes, dooms, extra
    queries, lineage pruning) at the paper's AC-extraQuery rung leave
    every counter where the per-call weaver, the eager flights and the
    three-round insert left it; the fixture was written by an earlier
    commit, before the row-witness rung existed."""
    golden = _fixture("rubis_bidding_stats.json")
    snapshot = _bidding_replay(policy=InvalidationPolicy.EXTRA_QUERY)
    # Counted under ROW_WITNESS only:
    assert snapshot.pop("witness_skips") == 0
    assert snapshot.pop("partner_skips") == snapshot.pop("partner_probes") == 0
    assert snapshot.keys() == golden.keys()
    for field, value in golden.items():
        assert snapshot[field] == value, field


def test_stats_after_a_fixed_replay_at_the_default_rung():
    """The same replay as the facade builds it by default (the
    row-witness rung), pinned field by field."""
    golden = _fixture("rubis_bidding_stats_row_witness.json")
    snapshot = _bidding_replay()
    assert snapshot.keys() == golden.keys()
    for field, value in golden.items():
        assert snapshot[field] == value, field


def test_a_woven_fast_hit_takes_one_lock_round(lock_rounds):
    with notes_server(start=False) as (server, _container, _awc):
        deliver(server, [get("/view_note?id=1")])  # the miss that stores it
        lock_rounds[0] = 0
        payload, _closed = deliver(server, [get("/view_note?id=1")])
        assert split_responses(payload) == [(200, b"<p>x|3</p>")]
        assert server.stats.fast_hits == 1
        assert lock_rounds[0] == 1


RING = {"facade": AutoWebCache, "n_nodes": 4}


def test_a_ring_fast_hit_takes_one_lock_round(lock_rounds):
    """The owning shard's lock and nothing else: a warm route is one
    dict lookup, taken without the router lock."""
    with notes_server(start=False, **RING) as (server, _container, awc):
        deliver(server, [get("/view_note?id=1")])  # the miss that stores it
        computed = awc.router.routes_computed
        lock_rounds[0] = 0
        payload, _closed = deliver(server, [get("/view_note?id=1")])
        assert split_responses(payload) == [(200, b"<p>x|3</p>")]
        assert server.stats.fast_hits == 1
        assert lock_rounds[0] == 1
        assert awc.router.routes_computed == computed


def slow_get_rounds(lock_rounds, **facade) -> int:
    """Lock rounds of a page GET re-missing after a write doomed it
    (warm plans, catalog and route: what a hot page's re-miss costs)."""
    with notes_server(start=False, **facade) as (server, _container, awc):
        deliver(server, [get("/view_note?id=1")])
        deliver(server, [post("/score", b"id=1&score=4")])
        assert awc.stats.invalidated_pages == 1
        lock_rounds[0] = 0
        payload, _closed = deliver(server, [get("/view_note?id=1")])
        rounds = lock_rounds[0]
        assert split_responses(payload) == [(200, b"<p>x|4</p>")]
        assert (server.stats.fast_hits, awc.stats.misses) == (0, 2)
        return rounds


@pytest.mark.parametrize("coalesce", [True, False])
def test_a_ring_page_miss_takes_as_many_lock_rounds_as_one_node(
    lock_rounds, coalesce
):
    one_node = slow_get_rounds(lock_rounds, coalesce=coalesce)
    assert one_node == 5  # fast_check, check, flight or window (3)
    assert slow_get_rounds(lock_rounds, coalesce=coalesce, **RING) == one_node


#: Facade calls that take no lock (``sync_catalog`` only when the schema
#: moved, which it does not on a warm path).
LOCK_FREE_CALLS = {"is_cacheable", "sync_catalog"}


def miss_calls_and_rounds(
    lock_rounds, monkeypatch, n_nodes: int, warm_route: bool
) -> tuple[list[str], int]:
    """The facade calls that take a lock, and the lock rounds, of a
    woven GET missing on a page never requested before (warm plans and
    catalog; the key's route warm only with ``warm_route``)."""
    _db, container = build_notes_app()
    awc = AutoWebCache(n_nodes=n_nodes)
    awc.install(container.servlet_classes)
    try:
        for note_id in ("1", "2"):
            container.post("/add", {"id": note_id, "topic": "a", "body": "x"})
        container.get("/view_note", {"id": "1"})  # warm: catalog, plans
        if warm_route:
            awc.router.owner_name("/view_note?id=2")
        calls: list[str] = []
        depth = [0]

        def outermost(name, original):
            def traced(self, *args, **kwargs):
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return original(self, *args, **kwargs)
                finally:
                    depth[0] -= 1

            return traced

        for name in ("is_cacheable", "check", "check_key", "join_flight",
                     "wait_flight", "finish_flight", "begin_window",
                     "end_window", "insert", "insert_key", "sync_catalog",
                     "record_uncacheable"):
            monkeypatch.setattr(
                ClusterRouter, name,
                outermost(name, getattr(ClusterRouter, name)),
            )
        lock_rounds[0] = 0
        assert container.get("/view_note", {"id": "2"}).status == 200
        locking = [name for name in calls if name not in LOCK_FREE_CALLS]
        return locking, lock_rounds[0]
    finally:
        awc.uninstall()


def test_a_woven_page_miss_takes_one_lock_round_per_facade_call(
    lock_rounds, monkeypatch
):
    """One node, a key never routed before: the one-member ring's single
    route answers it, so routing adds no lock round."""
    locking, rounds = miss_calls_and_rounds(
        lock_rounds, monkeypatch, n_nodes=1, warm_route=False
    )
    assert locking == ["check", "join_flight", "insert", "finish_flight"]
    assert rounds == len(locking)


@pytest.mark.parametrize("warm_route", [True, False])
def test_a_ring_page_miss_adds_one_lock_round_to_route_a_new_key(
    lock_rounds, monkeypatch, warm_route
):
    """Four nodes: a key never routed before fills its slot in the
    placement memo under the router lock, once; a warm key does not."""
    locking, rounds = miss_calls_and_rounds(
        lock_rounds, monkeypatch, n_nodes=4, warm_route=warm_route
    )
    assert locking == ["check", "join_flight", "insert", "finish_flight"]
    assert rounds == len(locking) + (0 if warm_route else 1)


def test_a_write_takes_as_many_lock_rounds_with_50_read_templates_as_with_1(
    lock_rounds,
):
    def write_over(n_templates: int) -> tuple[int, int]:
        cache = bare_store()
        for k in range(n_templates):
            sql = f"SELECT body AS b{k} FROM notes WHERE id = ?"
            cache.insert_key(f"/p{k}", "body", [QueryInstance(*templateize(sql, (k,)))])
        write = QueryInstance(
            *templateize("UPDATE notes SET body = ? WHERE id = ?", ("new", 0))
        )
        lock_rounds[0] = 0
        assert cache.process_write_request("/w", [write]) == {"/p0"}
        return lock_rounds[0], cache.stats.pair_analyses

    one, fifty = write_over(1), write_over(50)
    assert fifty[1] == 50 * one[1]  # the analysis work does grow ...
    assert fifty[0] == one[0] == 2  # ... the lock rounds do not
