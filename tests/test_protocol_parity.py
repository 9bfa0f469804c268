"""Protocol parity: every tier runs the same miss protocol on both facades.

The check -> coalesce -> compute -> insert protocol is written once
(``repro.cache.computation``); this table drives it through each tier's
woven surface -- page, fragment -- on a single ``Cache`` and on a
2-node ring, and asserts the three properties a hand-copied protocol
once got wrong in one copy (the PR-5 stale-serve race):

(a) a write landing between a *solo* computation's reads and its insert
    discards the insert;
(b) a leader that raises strands nobody and leaves no flight open;
(c) a waiter out of flight attempts computes solo, under a window.

One gated data source backs both tiers; the fragment tier sits on an
uncacheable page so the tier under test is the only one caching.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro.apps.html import fragment
from repro.cache.autowebcache import AutoWebCache
from repro.db import connect
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import ScoreNoteServlet, make_notes_db
from tests.test_single_flight import _spin_until


class GatedSource:
    """Reads note 1's score; execution ``n`` (1-based) announces itself
    on ``entered[n]``, parks on ``gates[n]`` if the test put an event
    there, and raises if ``n`` is in ``failing``."""

    def __init__(self, connection) -> None:
        self._connection = connection
        self._lock = threading.Lock()
        self.executions = 0
        self.entered: dict[int, threading.Event] = defaultdict(threading.Event)
        self.gates: dict[int, threading.Event] = {}
        self.failing: set[int] = set()

    def score(self) -> int:
        result = self._connection.create_statement().execute_query(
            "SELECT score FROM notes WHERE id = ?", (1,)
        )
        result.next()
        with self._lock:
            self.executions += 1
            n = self.executions
        self.entered[n].set()
        if n in self.gates:
            assert self.gates[n].wait(timeout=10)
        if n in self.failing:
            raise RuntimeError(f"execution {n} crashed")
        return result.get("score")


class ParityServlet(HttpServlet):
    """Renders the score directly (page tier) or through a declared
    fragment, per the URI."""

    def __init__(self, source: GatedSource, via: str) -> None:
        self._source = source
        self._via = via

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        if self._via == "fragment":
            fragment(
                response,
                "parity",
                {},
                lambda: response.write(f"score={self._source.score()}"),
            )
        else:
            response.write(f"score={self._source.score()}")


#: tier -> (URI to GET, cache key of the tier's entry, the tier's aspect).
TIERS = {
    "page": ("/page", "/page", "read_aspect"),
    "fragment": ("/fragment", "frag://parity", "fragment_aspect"),
}
FACADES = {
    "cache": AutoWebCache,
    "ring": lambda **kwargs: AutoWebCache(n_nodes=2, **kwargs),
}


class Rig:
    """One woven parity app: tier under test x facade."""

    def __init__(self, tier: str, facade: str, **awc_kwargs) -> None:
        self.uri, self.key, aspect_name = TIERS[tier]
        db = make_notes_db()
        db.update(
            "INSERT INTO notes (id, topic, body, score) VALUES (1, 'p', 'x', 5)"
        )
        connection = connect(db)
        self.source = GatedSource(connection)
        self.container = ServletContainer()
        for via in TIERS:
            self.container.register(
                f"/{via}", ParityServlet(self.source, via)
            )
        self.container.register("/score", ScoreNoteServlet(connection))
        self.awc = FACADES[facade](**awc_kwargs)
        self.awc.semantics.mark_uncacheable("/fragment")
        self.aspect = getattr(self.awc, aspect_name)
        self.awc.install(self.container.servlet_classes)

    def caches(self):
        """The per-node ``Cache`` objects behind the facade."""
        router = getattr(self.awc, "router", None)
        if router is None:
            return [self.awc.cache]
        return [node.cache for node in router.nodes()]

    def flight(self):
        flights = [cache.flight_for(self.key) for cache in self.caches()]
        return next((f for f in flights if f is not None), None)

    def open_keys(self) -> list[str]:
        return [k for cache in self.caches() for k in cache.open_flight_keys()]

    def cached(self) -> bool:
        return any(self.key in cache.pages for cache in self.caches())

    def get_in_thread(self, results: list) -> threading.Thread:
        def run() -> None:
            response = self.container.get(self.uri)
            results.append((response.status, response.body))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def set_score(self, score: int) -> None:
        response = self.container.post("/score", {"id": "1", "score": str(score)})
        assert response.status == 200


@pytest.fixture(params=[(t, f) for t in TIERS for f in FACADES], ids="-".join)
def rig_factory(request):
    tier, facade = request.param
    rigs: list[Rig] = []

    def build(**awc_kwargs) -> Rig:
        rigs.append(Rig(tier, facade, **awc_kwargs))
        return rigs[-1]

    try:
        yield build
    finally:
        for rig in rigs:
            rig.awc.uninstall()


@pytest.mark.concurrency
def test_write_during_solo_computation_discards_insert(rig_factory):
    rig = rig_factory(coalesce=False)
    gate = rig.source.gates[1] = threading.Event()
    results: list = []
    thread = rig.get_in_thread(results)
    assert rig.source.entered[1].wait(timeout=5)  # read score=5, parked
    assert rig.flight() is None and rig.open_keys() == [rig.key]  # a window
    rig.set_score(6)  # lands between the computation's read and its insert
    gate.set()
    thread.join(timeout=10)
    # Served what it computed (as if it finished just before the write)...
    assert results == [(200, "score=5")]
    # ...but the insert was discarded and nothing stale is resident.
    assert rig.awc.stats.stale_inserts == 1
    assert not rig.cached() and rig.open_keys() == []
    # The next request recomputes and caches the fresh value.
    assert rig.container.get(rig.uri).body == "score=6"
    assert rig.source.executions == 2 and rig.cached()


@pytest.mark.concurrency
def test_raising_leader_strands_nobody(rig_factory):
    rig = rig_factory()
    gate = rig.source.gates[1] = threading.Event()
    rig.source.failing.add(1)
    results: list = []
    leader = rig.get_in_thread(results)
    assert rig.source.entered[1].wait(timeout=5)
    flight = rig.flight()
    assert flight is not None
    waiter = rig.get_in_thread(results)
    assert _spin_until(lambda: flight.waiters == 1)
    gate.set()  # the leader crashes with the waiter parked on its flight
    leader.join(timeout=10)
    waiter.join(timeout=10)
    # The crash became a 500 page; the waiter recomputed the real one.
    assert sorted(status for status, _body in results) == [200, 500]
    assert (200, "score=5") in results
    assert rig.source.executions == 2
    assert rig.awc.cache.open_flights == 0 and rig.open_keys() == []
    assert rig.awc.stats.coalesced_hits == 0 and rig.cached()


@pytest.mark.concurrency
def test_waiter_out_of_attempts_computes_solo_under_a_window(rig_factory):
    """The test leads ``max_flight_attempts`` flights through the facade
    API and fails each; the woven request rides them all as a waiter,
    then must compute on its own."""
    rig = rig_factory()
    cache = rig.awc.cache
    gate = rig.source.gates[1] = threading.Event()
    woke = threading.Semaphore(0)
    may_rejoin = threading.Semaphore(0)
    real_wait = cache.wait_flight

    def wait_then_hold(flight):
        # Hold the waiter after each failed flight until the test has
        # opened the next one, so it can never lead a flight itself.
        entry = real_wait(flight)
        woke.release()
        assert may_rejoin.acquire(timeout=10)
        return entry

    cache.wait_flight = wait_then_hold
    results: list = []
    flight, is_leader = cache.join_flight(rig.key)
    assert is_leader
    thread = rig.get_in_thread(results)
    for attempt in range(rig.aspect.max_flight_attempts):
        assert _spin_until(lambda: flight.waiters == 1)
        cache.finish_flight(flight)  # no entry published: a failed flight
        assert woke.acquire(timeout=10)
        if attempt + 1 < rig.aspect.max_flight_attempts:
            flight, is_leader = cache.join_flight(rig.key)
            assert is_leader
        may_rejoin.release()
    # Out of attempts: the request computes under a window, not a flight.
    assert rig.source.entered[1].wait(timeout=5)
    assert cache.open_flights == 0 and rig.open_keys() == [rig.key]
    gate.set()
    thread.join(timeout=10)
    assert results == [(200, "score=5")]
    assert rig.source.executions == 1 and rig.cached()
    assert rig.open_keys() == [] and rig.awc.stats.stale_inserts == 0
