"""Single-flight (dogpile suppression) semantics.

N concurrent misses on one key must execute the servlet once, with the
consistency rule that an invalidation arriving during the computation
forces waiters to recompute instead of serving the stale body.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import QueryInstance
from repro.db import connect
from repro.sql.template import templateize
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import bare_store, make_notes_db, node_store


class GatedViewServlet(HttpServlet):
    """Reads a note, then blocks on a gate so tests control timing.

    ``executions`` counts real servlet runs -- the quantity coalescing
    must keep at one while N threads miss concurrently.
    """

    def __init__(self, connection) -> None:
        self._connection = connection
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.executions = 0
        self._lock = threading.Lock()

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        note_id = int(request.get_parameter("id"))
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT body, score FROM notes WHERE id = ?", (note_id,)
        )
        with self._lock:
            self.executions += 1
        self.entered.set()
        self.gate.wait(timeout=10)
        if result.next():
            response.write(f"<p>{result.get('body')}|{result.get('score')}</p>")
        else:
            response.write("<p>gone</p>")


class ScoreServlet(HttpServlet):
    """Write handler: updates one note's score."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self._connection.create_statement()
        statement.execute_update(
            "UPDATE notes SET score = ? WHERE id = ?",
            (
                int(request.get_parameter("score")),
                int(request.get_parameter("id")),
            ),
        )
        response.write("scored")


def build_gated_app():
    db = make_notes_db()
    db.update(
        "INSERT INTO notes (id, topic, body, score) VALUES (0, 'a', 'x', 5)"
    )
    connection = connect(db)
    container = ServletContainer()
    view = GatedViewServlet(connection)
    container.register("/view", view)
    container.register("/score", ScoreServlet(connection))
    return db, container, view


def _spin_until(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def test_concurrent_misses_execute_servlet_once():
    _db, container, view = build_gated_app()
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        n = 8
        bodies: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(n)

        def worker() -> None:
            barrier.wait(timeout=5)
            response = container.get("/view", {"id": "0"})
            with lock:
                bodies.append(response.body)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for thread in threads:
            thread.start()
        # One leader enters the servlet; the rest must pile onto its
        # flight.  Release the gate only once all 7 are waiting, so the
        # coalescing is forced, not lucky.
        assert view.entered.wait(timeout=5)
        flight = node_store(awc).flight_for("/view?id=0")
        assert flight is not None
        assert _spin_until(lambda: flight.waiters == n - 1)
        view.gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert bodies == ["<p>x|5</p>"] * n
        assert view.executions == 1
        assert awc.stats.coalesced_hits == n - 1
        assert awc.stats.inserts == 1
        # Every thread recorded its miss before coalescing.
        assert awc.stats.misses_cold == n
        assert len(awc.cache) == 1
    finally:
        awc.uninstall()


def test_invalidation_during_computation_forces_recompute():
    _db, container, view = build_gated_app()
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        results: dict[str, str] = {}

        def leader() -> None:
            results["leader"] = container.get("/view", {"id": "0"}).body

        def waiter() -> None:
            results["waiter"] = container.get("/view", {"id": "0"}).body

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert view.entered.wait(timeout=5)  # leader read score=5, parked
        flight = node_store(awc).flight_for("/view?id=0")
        assert flight is not None
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        assert _spin_until(lambda: flight.waiters == 1)
        # The write lands while the computation is in flight: the
        # leader's page (score=5) is stale the moment it is inserted.
        response = container.post("/score", {"id": "0", "score": "6"})
        assert response.status == 200
        view.gate.set()
        leader_thread.join(timeout=10)
        waiter_thread.join(timeout=10)
        # Leader serves what it computed (equivalent to finishing just
        # before the write) but must NOT cache it...
        assert results["leader"] == "<p>x|5</p>"
        assert awc.stats.stale_inserts == 1
        # ...and the waiter recomputed instead of serving the stale body.
        assert results["waiter"] == "<p>x|6</p>"
        assert awc.stats.coalesced_hits == 0
        assert view.executions == 2
        # The recomputed (fresh) page is what the cache holds now.
        cached = node_store(awc).pages.peek("/view?id=0")
        assert cached is not None and "|6" in cached.body
    finally:
        awc.uninstall()


def test_write_during_solo_computation_discards_insert():
    """Coalescing off: computations still run under a staleness window.

    Regression test -- a write landing between a solo computation's
    database reads and its insert used to be invisible (no flight to
    buffer it, no dependency registrations to doom), so the stale page
    was cached and served until the next write touching the same data.
    """
    _db, container, view = build_gated_app()
    awc = AutoWebCache(coalesce=False)
    awc.install(container.servlet_classes)
    try:
        assert node_store(awc).coalesce is False
        results: dict[str, str] = {}

        def solo() -> None:
            results["solo"] = container.get("/view", {"id": "0"}).body

        thread = threading.Thread(target=solo)
        thread.start()
        assert view.entered.wait(timeout=5)  # read score=5, parked
        assert node_store(awc).open_flight_keys() == ["/view?id=0"]
        # The write lands mid-computation; the parked page is stale.
        response = container.post("/score", {"id": "0", "score": "6"})
        assert response.status == 200
        view.gate.set()
        thread.join(timeout=10)
        # The solo reader serves what it computed (equivalent to
        # finishing just before the write) but must NOT cache it.
        assert results["solo"] == "<p>x|5</p>"
        assert awc.stats.stale_inserts == 1
        assert node_store(awc).pages.peek("/view?id=0") is None
        assert node_store(awc).open_flight_keys() == []
        # The next read recomputes and caches the fresh page.
        assert container.get("/view", {"id": "0"}).body == "<p>x|6</p>"
        cached = node_store(awc).pages.peek("/view?id=0")
        assert cached is not None and "|6" in cached.body
    finally:
        awc.uninstall()


def test_forced_miss_mode_disables_coalescing():
    _db, container, view = build_gated_app()
    view.gate.set()  # no parking needed here
    awc = AutoWebCache(forced_miss=True)
    awc.install(container.servlet_classes)
    try:
        assert node_store(awc).coalesce is False
        for _ in range(3):
            response = container.get("/view", {"id": "0"})
            assert response.status == 200
        assert view.executions == 3
        assert awc.stats.coalesced_hits == 0
        assert len(awc.cache) == 0 or awc.stats.hits == 0
    finally:
        awc.uninstall()


def test_failed_leader_does_not_strand_waiters():
    """A leader whose page errors leaves waiters free to recompute."""
    db = make_notes_db()
    connection = connect(db)

    class FlakyServlet(HttpServlet):
        calls = 0
        entered = threading.Event()
        gate = threading.Event()
        _lock = threading.Lock()

        def __init__(self, conn) -> None:
            self._connection = conn

        def do_get(self, request, response):
            statement = self._connection.create_statement()
            statement.execute_query("SELECT id FROM notes WHERE id = ?", (1,))
            with FlakyServlet._lock:
                FlakyServlet.calls += 1
                first = FlakyServlet.calls == 1
            if first:
                FlakyServlet.entered.set()
                FlakyServlet.gate.wait(timeout=10)
                raise RuntimeError("leader crashed")
            response.write("ok")

    container = ServletContainer()
    container.register("/flaky", FlakyServlet(connection))
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        statuses: list[int] = []
        bodies: list[str] = []
        lock = threading.Lock()

        def worker() -> None:
            response = container.get("/flaky")
            with lock:
                statuses.append(response.status)
                bodies.append(response.body)

        leader_thread = threading.Thread(target=worker)
        leader_thread.start()
        assert FlakyServlet.entered.wait(timeout=5)
        flight = node_store(awc).flight_for("/flaky")
        assert flight is not None
        waiter_thread = threading.Thread(target=worker)
        waiter_thread.start()
        assert _spin_until(lambda: flight.waiters == 1)
        FlakyServlet.gate.set()
        leader_thread.join(timeout=10)
        waiter_thread.join(timeout=10)
        # Leader's crash became a 500 page; the waiter recomputed and
        # got the real page.  Nobody hung on the dead flight.
        assert sorted(statuses) == [200, 500]
        assert "ok" in bodies[statuses.index(200)] or "ok" in "".join(bodies)
        assert awc.cache.open_flights == 0
    finally:
        awc.uninstall()


def test_flight_api_leader_and_waiter_lifecycle():
    """Cache-level single-flight API, single-threaded sanity."""

    cache = bare_store()
    flight, is_leader = cache.join_flight("/k")
    assert is_leader
    again, second_leader = cache.join_flight("/k")
    assert again is flight and not second_leader
    assert flight.waiters == 1
    entry = cache.insert(HttpRequest("GET", "/k"), "body", [], window=flight)
    cache.finish_flight(flight)
    assert cache.wait_flight(flight) is entry
    assert cache.open_flights == 0
    # A finished flight's key can be recomputed afresh.
    flight2, is_leader2 = cache.join_flight("/k")
    assert is_leader2 and flight2 is not flight
    cache.finish_flight(flight2)


def test_external_invalidate_key_marks_flight_stale():

    cache = bare_store()
    flight, _ = cache.join_flight("/k")
    cache.invalidate_key("/k")
    assert flight.stale
    entry = cache.insert(HttpRequest("GET", "/k"), "body", [], window=flight)
    assert entry is not None
    assert len(cache) == 0  # stale: not stored
    assert cache.stats.stale_inserts == 1
    cache.finish_flight(flight)
    assert cache.wait_flight(flight) is None


def test_waiter_timeout_returns_none(monkeypatch):
    from repro.cache import flight as flight_module

    monkeypatch.setattr(flight_module, "FLIGHT_TIMEOUT", 0.05)
    cache = bare_store()
    flight, _ = cache.join_flight("/k")
    other, is_leader = cache.join_flight("/k")
    assert not is_leader
    started = time.monotonic()
    assert cache.wait_flight(other) is None  # leader never finishes
    assert time.monotonic() - started < 5.0
    cache.finish_flight(flight)


def _note_read() -> QueryInstance:
    return QueryInstance(
        *templateize("SELECT body, score FROM notes WHERE id = ?", (0,))
    )


def _note_write() -> QueryInstance:
    """A write every :func:`_note_read` result depends on."""
    return QueryInstance(*templateize("UPDATE notes SET score = ?", (9,)))


@pytest.mark.parametrize("facade", ["cache", "ring"])
def test_a_window_is_judged_by_its_own_start_not_an_older_flight(facade):
    """A leader opens ``/k``; a write its reads depend on is processed;
    only then does a private window open on ``/k``.  The window overlaps
    no write, so its insert is stored -- and the entry is not handed to
    the leader's waiters, whose leader the write still refuses."""
    from repro.cluster import ClusterRouter

    if facade == "cache":
        cache = bare_store()
    else:
        cache = ClusterRouter(["n0", "n1"])
    flight, is_leader = cache.join_flight("/k")
    assert is_leader
    cache.process_write_request("/w", [_note_write()])
    window = cache.begin_window("/k")
    try:
        entry, stored = cache.insert_key(
            "/k", "<fresh>", [_note_read()], window=window
        )
    finally:
        cache.end_window(window)
    assert stored and not window.stale
    assert flight.entry is None
    _entry, leader_stored = cache.insert_key(
        "/k", "<stale>", [_note_read()], window=flight
    )
    cache.finish_flight(flight)
    assert not leader_stored and flight.stale
    assert cache.wait_flight(flight) is None
    assert cache.check_key("/k", "/k") is entry


def test_a_stale_insert_stores_nothing():
    """The staleness check runs before the store: a stale token's insert
    leaves no entry, bytes or dependency rows, and hands its waiters
    nothing."""

    cache = bare_store()
    window = cache.begin_window("/k")
    window.stale = True
    _entry, stored = cache.insert_key("/k", "body", [_note_read()], window=window)
    cache.end_window(window)
    assert not stored and window.entry is None
    assert "/k" not in cache and cache.pages.total_bytes == 0
    assert cache.pages.dependencies.read_templates() == []
    assert (cache.stats.stale_inserts, cache.stats.inserts) == (1, 0)


def test_an_insert_closes_its_flight_so_no_joiner_gets_an_evicted_entry():
    """The insert closes its token in the lock round that stores the
    entry.  The entry may then leave the store (here by eviction) and a
    write land that no dependency row can doom it by, but nobody can
    join the finished flight and be handed the pre-write body: the next
    miss leads afresh."""

    cache = bare_store(replacement="lru", capacity=1)
    flight, is_leader = cache.join_flight("/p")
    assert is_leader
    entry, stored = cache.insert_key(
        "/p", "<pre-write>", [_note_read()], window=flight
    )
    assert stored and flight.entry is entry and flight.finished
    assert cache.open_flights == 0
    cache.insert_key("/q", "<other>", [])  # evicts /p and its rows
    assert "/p" not in cache
    cache.process_write_request("/w", [_note_write()])
    fresh, is_leader = cache.join_flight("/p")
    assert fresh is not flight and is_leader
    cache.finish_flight(fresh)
    cache.finish_flight(flight)  # closing a closed token does nothing
    assert cache.open_flights == 0 and cache.open_flight_keys() == []


@pytest.mark.concurrency
def test_dogpile_after_invalidation_coalesces_again():
    """The paper's worst case: hot page invalidated under load."""
    _db, container, view = build_gated_app()
    view.gate.set()
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        # Warm the page, then invalidate it while readers hammer it.
        container.get("/view", {"id": "0"})
        assert len(awc.cache) == 1
        stop = threading.Event()
        errors: list[Exception] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    response = container.get("/view", {"id": "0"})
                    assert response.status == 200
                    assert "|" in response.body
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for score in range(10, 20):
            container.post("/score", {"id": "0", "score": str(score)})
            time.sleep(0.005)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        assert awc.cache.open_flights == 0
        # Quiescent consistency: the cache serves the last written score.
        response = container.get("/view", {"id": "0"})
        assert "|19" in response.body
    finally:
        awc.uninstall()
