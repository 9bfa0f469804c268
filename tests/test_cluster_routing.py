"""The router's placement memo against the placement it memoizes.

:class:`ReferenceRouting` is the router's routing as it was before the
memo -- ``_owner``, verbatim apart from reading the router's state
through ``self.router`` -- recomputing every answer from the ring, the
node states and the membership verdicts.  The memoized router must give
the same answer after any sequence of membership events (the
``reference_executor.py`` / ``reference_weaver.py`` pattern: a simple
implementation as oracle, generated inputs).  The focused tests below
change one routing-version source at a time, so dropping any one bump
fails one of them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.entry import QueryInstance
from repro.cluster import ClusterRouter
from repro.cluster.membership import DEAD, ROUTER
from repro.cluster.node import JOINED
from repro.cluster.router import _ROUTE_MEMO_LIMIT
from repro.errors import ClusterError
from repro.sql.template import templateize

from tests.test_cluster_membership import FakeClock

KEYS = [f"/rubis/view_item?item={i}" for i in range(24)]
NAMES = [f"node-{i}" for i in range(6)]


class ReferenceRouting:
    """Placement recomputed on every call (the pre-memo router)."""

    def __init__(self, router: ClusterRouter) -> None:
        self.router = router

    def _owner(self, key):
        name = self.router.ring.node_for(key)
        node = self.router._nodes.get(name)
        if (
            node is not None
            and node.state == JOINED
            and self.router.membership.is_alive(name)
        ):
            return node
        for name in self.router.ring.nodes_for(key, len(self.router._nodes)):
            node = self.router._nodes.get(name)
            if node is not None and node.state == JOINED:
                return node
        raise ClusterError(f"no live cache node is reachable for key {key!r}")


def answer(call, key):
    """``call(key)`` as a node name, or the error type it raised."""
    try:
        return call(key).name
    except ClusterError:
        return ClusterError


def assert_routes_match(router: ClusterRouter, reference: ReferenceRouting) -> None:
    for key in KEYS:
        assert answer(router._owner, key) == answer(reference._owner, key), key


def build(n_nodes: int) -> tuple[ClusterRouter, FakeClock]:
    clock = FakeClock()
    router = ClusterRouter(NAMES[:n_nodes], clock=clock)
    return router, clock


_name = st.sampled_from(NAMES)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), _name, st.booleans()),
        st.tuples(st.just("remove_node"), _name, st.booleans()),
        st.tuples(st.just("silence_node"), _name, st.none()),
        st.tuples(st.just("evict_node"), _name, st.none()),
        st.tuples(st.just("fail_node"), _name, st.none()),
        st.tuples(st.just("tick"), st.sampled_from([0.5, 1.0, 1.5]), st.none()),
        st.tuples(st.just("step"), st.sampled_from([0.5, 1.0, 1.5]), st.none()),
    ),
    max_size=14,
)


def apply(router: ClusterRouter, clock: FakeClock, op) -> None:
    kind, argument, flag = op
    try:
        if kind in ("tick", "step"):
            clock.advance(argument)
            if kind == "tick":
                router.tick(clock.now)
            else:
                router.membership.step(clock.now)
        elif flag is None:
            getattr(router, kind)(argument)
        else:
            getattr(router, kind)(argument, drain=flag)
    except ClusterError:
        pass  # unknown / duplicate / non-joined node: nothing routable moved


class TestAgainstTheReference:
    @settings(max_examples=120, deadline=None)
    @given(n_nodes=st.integers(1, 5), ops=_ops)
    def test_every_answer_matches_after_every_event(self, n_nodes, ops):
        router, clock = build(n_nodes)
        reference = ReferenceRouting(router)
        assert_routes_match(router, reference)
        for op in ops:
            apply(router, clock, op)
            assert_routes_match(router, reference)
            assert_routes_match(router, reference)  # the memo's second answer

    def test_a_warm_memo_computes_nothing(self):
        router, _clock = build(4)
        reference = ReferenceRouting(router)
        assert_routes_match(router, reference)
        computed = router.routes_computed
        assert_routes_match(router, reference)
        assert router.routes_computed == computed == len(KEYS)
        assert router.route_memo_size == len(KEYS)

    def test_the_memo_stays_bounded(self):
        router, _clock = build(4)
        reference = ReferenceRouting(router)
        for i in range(50_000):
            router._route(f"/k?i={i}")
            assert router.route_memo_size <= _ROUTE_MEMO_LIMIT
        assert router.routes_computed == 50_000
        assert_routes_match(router, reference)


def warm(router: ClusterRouter, reference: ReferenceRouting) -> None:
    assert_routes_match(router, reference)
    assert router.route_memo_size == len(KEYS)


class TestEachVersionSourceAlone:
    """One source changes, nothing else does: the memo must notice."""

    def test_ring_change(self):
        router, _clock = build(4)
        reference = ReferenceRouting(router)
        warm(router, reference)
        router.ring.remove_node("node-1")
        assert_routes_match(router, reference)
        router.ring.add_node("node-1")
        assert_routes_match(router, reference)

    @pytest.mark.parametrize(
        "operation, transition",
        [
            ("remove_node", "mark_draining"),
            ("silence_node", "mark_left"),
            ("evict_node", "mark_left"),
        ],
    )
    def test_node_state_change(self, operation, transition):
        """The moment a node leaves ``JOINED`` -- before the ring or the
        membership hear of it -- no route may name it any more."""
        router, _clock = build(4)
        reference = ReferenceRouting(router)
        warm(router, reference)
        node = router.node("node-2")
        mark = getattr(node, transition)
        checked = []

        def mark_then_route():
            mark()
            assert_routes_match(router, reference)
            checked.append(transition)

        setattr(node, transition, mark_then_route)
        getattr(router, operation)("node-2")
        assert checked
        assert_routes_match(router, reference)

    def test_membership_register_and_forget(self):
        router, _clock = build(4)
        reference = ReferenceRouting(router)
        warm(router, reference)
        router.membership.forget("node-3")
        assert_routes_match(router, reference)
        router.membership.register("node-3")
        assert_routes_match(router, reference)

    def test_membership_step_verdict(self):
        router, clock = build(4)
        reference = ReferenceRouting(router)
        membership = router.membership
        membership.silence("node-0")
        membership.step(clock.now)
        warm(router, reference)
        for _ in range(20):
            clock.advance(0.5)
            for name in ("node-1", "node-2", "node-3"):
                membership.beat(name)
            membership.step(clock.now)
            assert_routes_match(router, reference)
        assert membership.state("node-0") == DEAD

    def test_membership_merge_teaches_the_router_a_peer(self):
        router, clock = build(4)
        reference = ReferenceRouting(router)
        membership = router.membership
        # A router view that has not heard of node-2 yet (one that came
        # up after the node did); only gossip can teach it.
        del membership._views[ROUTER]["node-2"]
        warm(router, reference)
        for _ in range(50):
            transitions = membership.step(clock.now)  # the clock stands still
            assert transitions == []
            assert_routes_match(router, reference)
            if membership.is_alive("node-2"):
                break
        assert membership.is_alive("node-2")

    def test_a_verdict_landing_mid_computation_is_not_kept(self, monkeypatch):
        router, _clock = build(4)
        reference = ReferenceRouting(router)
        membership = router.membership
        is_alive = membership.is_alive
        seen = []

        def verdict_then_forget(name, *args):
            alive = is_alive(name, *args)
            if not seen:  # the answer is already out of date
                seen.append(name)
                membership.forget(name)
            return alive

        monkeypatch.setattr(membership, "is_alive", verdict_then_forget)
        router._route(KEYS[0])
        monkeypatch.setattr(membership, "is_alive", is_alive)
        assert seen and not is_alive(seen[0])
        assert_routes_match(router, reference)


def _read() -> QueryInstance:
    return QueryInstance(
        *templateize("SELECT id, topic, body, score FROM notes WHERE topic = ?", ("t",))
    )


def _write() -> QueryInstance:
    """A write every :func:`_read` result depends on."""
    return QueryInstance(*templateize("UPDATE notes SET score = ?", (9,)))


LEAVES = ["evict_node", "remove_node", "silence_node"]


@pytest.mark.parametrize(
    "operation, deaf_from",
    # The membership call each leave makes once its node hears no more
    # writes (unsubscribed, or LEFT and ignoring deliveries).
    [("remove_node", "forget"), ("evict_node", "silence"), ("silence_node", "silence")],
)
def test_a_flight_open_on_a_leaving_node_is_poisoned_before_it_goes_deaf(
    operation, deaf_from
):
    router, _clock = build(4)
    key = KEYS[0]
    flight, is_leader = router.join_flight(key)
    assert is_leader
    waiter, _ = router.join_flight(key)
    membership = router.membership
    real = getattr(membership, deaf_from)
    stored = []

    def write_then_insert_mid_leave(name):
        real(name)
        router.process_write_request("/w", [_write()])
        stored.append(
            router.insert_key(key, "<before the write>", [_read()], window=flight)[1]
        )

    setattr(membership, deaf_from, write_then_insert_mid_leave)
    getattr(router, operation)(flight.node.name)
    router.finish_flight(flight)
    assert stored == [False]
    assert router.wait_flight(waiter) is None


class TestLeaveBetweenRouteAndOpen:
    """A memoized route names a node; the node leaves; only then does the
    computation open on it.  Flights and windows open without the router
    lock, so this interleaving is real.  A node that has left hears no
    more writes, so nothing opened there may be kept or served."""

    @staticmethod
    def leave_before_next_open(router, node, operation, opener):
        """Make ``node``'s next ``opener`` call run ``operation`` on it
        first -- after the router has routed to it."""
        real = getattr(node.cache, opener)

        def leave_then_open(*args):
            del node.cache.__dict__[opener]
            getattr(router, operation)(node.name)
            return real(*args)

        setattr(node.cache, opener, leave_then_open)

    @pytest.mark.parametrize("operation", LEAVES)
    def test_a_waiter_after_a_write_never_gets_the_page_it_doomed(self, operation):
        router, _clock = build(4)
        key = KEYS[0]
        self.leave_before_next_open(router, router._owner(key), operation, "join_flight")
        flight, is_leader = router.join_flight(key)
        assert is_leader
        assert flight.node.state == JOINED
        # A write lands while the leader computes; a request arriving
        # after it joins the key's flight.
        router.process_write_request("/w", [_write()])
        waiter, waiter_leads = router.join_flight(key)
        assert waiter is flight and not waiter_leads
        _entry, stored = router.insert_key(
            key, "<before the write>", [_read()], window=flight
        )
        router.finish_flight(flight)
        assert not stored
        assert router.wait_flight(waiter) is None
        assert not any(key in node.cache for node in router.nodes())
        assert router.open_flights == 0

    @pytest.mark.parametrize("operation", LEAVES)
    def test_a_miss_record_on_a_node_that_left_is_closed_and_led_elsewhere(
        self, operation
    ):
        """The woven check opens its record in the node's lock round; on a
        node that left in between, the router closes it and answers
        None, and the join that follows routes again."""
        router, _clock = build(4)
        key = KEYS[0]
        old = router._owner(key)
        self.leave_before_next_open(router, old, operation, "check_or_lead")
        assert router.check_key(key, "/k") is None
        assert old.cache.open_flight_keys() == []
        flight, is_leader = router.join_flight(key)
        assert is_leader and flight.node is not old and flight.node.state == JOINED
        router.finish_flight(flight)
        assert router.open_flights == 0

    @pytest.mark.parametrize("operation", LEAVES)
    def test_a_window_on_a_node_that_left_is_reopened_elsewhere(self, operation):
        router, _clock = build(4)
        key = KEYS[0]
        self.leave_before_next_open(router, router._owner(key), operation, "begin_window")
        window = router.begin_window(key)
        try:
            assert window.node.state == JOINED
            router.process_write_request("/w", [_write()])
            _entry, stored = router.insert_key(key, "<old>", [_read()], window=window)
            assert not stored and window.stale
        finally:
            router.end_window(window)
        assert router.open_flights == 0
