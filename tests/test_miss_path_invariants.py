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
import sys
import threading
from pathlib import Path

import pytest

import repro.aop.weaver as weaver
import repro.cache.aspects as aspects
from bench.workloads import WORKLOADS, build_app, generate
from repro.aop.joinpoint import JoinPoint
from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.analysis import InvalidationPolicy
from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import QueryInstance
from repro.cluster.router import ClusterRouter
from repro.db import connect
from repro.sql.template import templateize
from repro.web.http import HttpRequest
from repro.web.servlet import HttpServlet

from tests.conftest import bare_store, build_notes_app, count_calls
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


#: The middleware packages the call ledger counts
#: (``benchmarks/profile_requests.py``, ``call_ledger``).
MIDDLEWARE = ("cache", "cluster", "aop", "sql")


def middleware_calls(run) -> int:
    """Calls into ``src/repro/{cache,cluster,aop,sql}/`` while ``run()``
    runs, counted as the call ledger counts them: every ``call`` event,
    code objects named ``<...>`` skipped."""
    count = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name[0] != "<":
            parts = Path(frame.f_code.co_filename).parts
            if len(parts) > 2 and parts[-3] == "repro" and parts[-2] in MIDDLEWARE:
                count[0] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count[0]


def test_a_warm_slow_get_makes_at_most_50_middleware_calls(woven_rubis):
    """A page miss is one record from check to insert: no second route,
    token lookup or statistics call, one catalog guard per request
    (75 calls when the miss took four facade calls)."""
    app, awc = woven_rubis
    app.container.get("/rubis/view_item", {"item": "1"})  # warm: plans, catalog
    calls = middleware_calls(
        lambda: app.container.get("/rubis/view_item", {"item": "2"})
    )
    assert awc.stats.misses == 2 and awc.stats.inserts == 2
    assert calls <= 50


@pytest.mark.parametrize("facade", [{}, RING], ids=["one node", "ring"])
def test_a_fast_hit_makes_no_more_middleware_calls(facade):
    """The fast path is untouched: a warm route read inline, one probe
    (13 calls before the placement snapshot)."""
    with notes_server(start=False, **facade) as (server, _container, _awc):
        deliver(server, [get("/view_note?id=1")])  # the miss that stores it
        calls = middleware_calls(lambda: deliver(server, [get("/view_note?id=1")]))
        assert server.stats.fast_hits == 1
        assert calls <= 10


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
    # check (opens the record), insert (closes it); the fast probe of an
    # absent key takes no lock.
    assert one_node == 2
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
    assert locking == ["check", "insert"]
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
    assert locking == ["check", "insert"]
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


def evicting_miss_rounds(lock_rounds, **facade) -> tuple[int, int]:
    """Lock rounds of a woven GET missing on a page never requested
    before, and the evictions it caused, on a fragment-free facade."""
    _db, container = build_notes_app()
    awc = AutoWebCache(**facade)
    awc.install(container.servlet_classes)
    try:
        for note_id in ("1", "2"):
            container.post("/add", {"id": note_id, "topic": "a", "body": "x"})
        container.get("/view_note", {"id": "1"})  # warm: catalog, plans
        evictions = awc.stats.evictions
        lock_rounds[0] = 0
        assert container.get("/view_note", {"id": "2"}).status == 200
        return lock_rounds[0], awc.stats.evictions - evictions
    finally:
        awc.uninstall()


def test_a_miss_that_evicts_takes_no_lock_round_to_settle_without_fragments(
    lock_rounds,
):
    """Nothing embeds a fragment, so an eviction has no containment to
    close: it is not even noted, and takes no router-lock round."""
    rounds, evictions = evicting_miss_rounds(lock_rounds)
    assert evictions == 0
    assert evicting_miss_rounds(lock_rounds, replacement="lru", capacity=1) == (
        rounds,
        1,
    )


class RescoreServlet(HttpServlet):
    """A write request that reads first: one SELECT, then ``updates``
    UPDATEs of the same note."""

    def __init__(self, connection, updates: int) -> None:
        self._connection = connection
        self._updates = updates

    def do_post(self, request, response) -> None:
        note_id = int(request.get_parameter("id"))
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT score FROM notes WHERE id = ?", (note_id,)
        )
        score = result.get("score") if result.next() else 0
        for step in range(self._updates):
            statement.execute_update(
                "UPDATE notes SET score = ? WHERE id = ?", (score + step + 1, note_id)
            )
        response.write("rescored")


def rescoring_app(**facade):
    db, container = build_notes_app()
    connection = connect(db)
    container.register("/rescore1", RescoreServlet(connection, 1))
    container.register("/rescore3", RescoreServlet(connection, 3))
    awc = AutoWebCache(**facade)
    awc.install(container.servlet_classes)
    container.post("/add", {"id": "1", "topic": "a", "body": "x"})
    return container, awc


def test_a_write_requests_own_select_is_neither_templateized_nor_witnessed(
    monkeypatch,
):
    """Only a read (or fragment) context records dependencies, so a
    write request's SELECT skips both; its UPDATE is still templateized."""
    container, awc = rescoring_app()
    try:
        templateized: list[str] = []
        original = aspects.templateize

        def noted(sql, params=()):
            templateized.append(sql.split()[0])
            return original(sql, params)

        monkeypatch.setattr(aspects, "templateize", noted)
        witnessed = count_calls(monkeypatch, ClusterRouter, "witness")
        assert container.get("/view_note", {"id": "1"}).status == 200
        assert (templateized, witnessed) == (["SELECT"], [1])  # hooks are live
        templateized.clear()
        assert container.post("/rescore1", {"id": "1"}).status == 200
        assert templateized == ["UPDATE"]
        assert witnessed == [1]
        assert awc.stats.invalidated_pages == 1
    finally:
        awc.uninstall()


class CountingLock:
    """Counts the ``with`` rounds taken on the lock it stands in for."""

    def __init__(self, lock) -> None:
        self.lock, self.rounds = lock, 0

    def __enter__(self):
        self.rounds += 1
        return self.lock.__enter__()

    def __exit__(self, *exc) -> None:
        self.lock.__exit__(*exc)


@pytest.mark.parametrize(
    "policy", [InvalidationPolicy.EXTRA_QUERY, InvalidationPolicy.ROW_WITNESS]
)
def test_a_write_records_its_extra_queries_in_one_router_lock_round(policy):
    """Each UPDATE's pre-image is an extra query; a request's tally is
    recorded with the write, so three cost the router lock what one does."""
    container, awc = rescoring_app(policy=policy)
    try:
        router_lock = awc.router._lock = CountingLock(awc.router._lock)
        counted = []
        for uri in ("/rescore1", "/rescore3"):
            before = (router_lock.rounds, awc.stats.extra_queries)
            assert container.post(uri, {"id": "1"}).status == 200
            counted.append(
                (router_lock.rounds - before[0], awc.stats.extra_queries - before[1])
            )
        (one, one_queries), (three, three_queries) = counted
        assert (one_queries, three_queries) == (1, 3)
        assert one == three
    finally:
        awc.uninstall()


class BumpThenFailServlet(HttpServlet):
    """A read handler that writes, then answers with an error page."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request, response) -> None:
        self._connection.create_statement().execute_update(
            "UPDATE notes SET score = score + 1 WHERE id = ?",
            (int(request.get_parameter("id")),),
        )
        response.set_status(500)


def test_a_read_handler_that_wrote_invalidates_even_when_it_fails():
    db, container = build_notes_app()
    container.register("/bump", BumpThenFailServlet(connect(db)))
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        container.post("/add", {"id": "1", "topic": "a", "body": "x", "score": "3"})
        assert container.get("/view_note", {"id": "1"}).body == "<p>x|3</p>"
        assert container.get("/bump", {"id": "1"}).status == 500
        assert container.get("/view_note", {"id": "1"}).body == "<p>x|4</p>"
    finally:
        awc.uninstall()
