"""Gossip membership: heartbeats, suspicion, convergence, router hooks."""

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cluster.membership import (
    ALIVE,
    DEAD,
    ROUTER,
    SUSPECT,
    GossipMembership,
    Transition,
)
from repro.errors import ClusterError
from repro.web.http import HttpRequest

from tests.conftest import build_notes_app


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def build(n=3, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("suspicion_timeout", 2.0)
    kwargs.setdefault("death_timeout", 6.0)
    membership = GossipMembership(clock=clock, seed=1, **kwargs)
    for i in range(n):
        membership.register(f"node-{i}")
    return membership, clock


def run_protocol(membership, clock, rounds, dt=0.5, beat=()):
    """Advance time in ``dt`` steps, beating the given nodes each round."""
    transitions = []
    for _ in range(rounds):
        clock.advance(dt)
        for name in beat:
            membership.beat(name)
        transitions.extend(membership.step())
    return transitions


class TestLifecycle:
    def test_register_and_members(self):
        membership, _clock = build(3)
        assert membership.members() == ["node-0", "node-1", "node-2"]

    def test_duplicate_register_rejected(self):
        membership, _clock = build(1)
        with pytest.raises(ClusterError, match="already"):
            membership.register("node-0")

    def test_death_timeout_must_exceed_suspicion(self):
        with pytest.raises(ClusterError, match="exceed"):
            GossipMembership(suspicion_timeout=5.0, death_timeout=5.0)

    def test_forget_removes_everywhere(self):
        membership, _clock = build(3)
        membership.forget("node-1")
        assert membership.members() == ["node-0", "node-2"]
        with pytest.raises(ClusterError, match="no view"):
            membership.state("node-1")

    def test_all_alive_initially(self):
        membership, _clock = build(3)
        for name in membership.members():
            assert membership.state(name) == ALIVE
            assert membership.is_alive(name)


class TestFailureDetection:
    def test_beating_nodes_stay_alive(self):
        membership, clock = build(3)
        everyone = membership.members()
        transitions = run_protocol(membership, clock, rounds=30, beat=everyone)
        assert transitions == []
        assert all(membership.state(n) == ALIVE for n in everyone)

    def test_silenced_node_becomes_suspect_then_dead(self):
        membership, clock = build(3)
        membership.silence("node-2")
        live = ["node-0", "node-1"]
        transitions = run_protocol(membership, clock, rounds=20, beat=live)
        states = [
            t.state
            for t in transitions
            if t.observer == ROUTER and t.peer == "node-2"
        ]
        assert states == [SUSPECT, DEAD]
        assert membership.state("node-2") == DEAD
        assert not membership.is_alive("node-2")
        # The survivors never accuse each other.
        assert membership.state("node-0") == ALIVE
        assert membership.state("node-1") == ALIVE

    def test_suspect_revived_by_late_heartbeat(self):
        membership, clock = build(2)
        # node-1 goes quiet long enough to be suspected, but not dead.
        transitions = run_protocol(
            membership, clock, rounds=5, beat=["node-0"]
        )
        assert (
            Transition(ROUTER, "node-1", SUSPECT) in transitions
        )
        assert membership.state("node-1") == SUSPECT
        assert membership.is_alive("node-1")  # SUSPECT still routes
        # It comes back: the counter advance clears the suspicion.
        revived = run_protocol(
            membership, clock, rounds=3, beat=["node-0", "node-1"]
        )
        assert membership.state("node-1") == ALIVE
        assert Transition(ROUTER, "node-1", DEAD) not in revived

    def test_dead_is_sticky_until_reregistered(self):
        membership, clock = build(2)
        membership.silence("node-1")
        run_protocol(membership, clock, rounds=20, beat=["node-0"])
        assert membership.state("node-1") == DEAD
        # A rejoin through the router resets the verdict.
        membership.register("node-1")
        assert membership.state("node-1") == ALIVE

    def test_detector_outage_does_not_kill_beating_nodes(self):
        # The sweep must count silence observed *while stepping*: if
        # the caller stops ticking for longer than both timeouts, the
        # first tick back would otherwise see every row's age past
        # death_timeout and declare healthy, beating peers DEAD before
        # their fresh counters could gossip anywhere.
        membership, clock = build(3)
        everyone = membership.members()
        run_protocol(membership, clock, rounds=4, beat=everyone)
        clock.advance(60.0)  # detector outage, nodes still healthy
        transitions = run_protocol(
            membership, clock, rounds=6, beat=everyone
        )
        assert transitions == []
        assert all(membership.state(n) == ALIVE for n in everyone)

    def test_first_step_long_after_registration_kills_nobody(self):
        # Same hazard at t=0: registration happens at construction,
        # but a live deployment's first tick may come much later.
        # Observation starts at the first step, not at registration.
        membership, clock = build(3)
        everyone = membership.members()
        clock.advance(60.0)
        transitions = run_protocol(
            membership, clock, rounds=6, beat=everyone
        )
        assert transitions == []
        assert all(membership.state(n) == ALIVE for n in everyone)

    def test_death_during_outage_detected_after_resume(self):
        # The outage credit restarts timers, it does not grant
        # amnesty: a peer that died while the detector was paused is
        # still caught within death_timeout of resumed stepping.
        membership, clock = build(3)
        everyone = membership.members()
        run_protocol(membership, clock, rounds=4, beat=everyone)
        membership.silence("node-2")
        clock.advance(60.0)
        resumed_at = clock.now
        live = ["node-0", "node-1"]
        death_at = None
        for _ in range(40):
            clock.advance(0.5)
            for name in live:
                membership.beat(name)
            for transition in membership.step():
                if (
                    transition.observer == ROUTER
                    and transition.peer == "node-2"
                    and transition.state == DEAD
                ):
                    death_at = clock.now
            if death_at is not None:
                break
        assert death_at is not None
        assert death_at - resumed_at <= 6.0 + 1.0
        assert membership.state("node-0") == ALIVE
        assert membership.state("node-1") == ALIVE

    def test_detection_latency_bounded_by_timeouts(self):
        membership, clock = build(4, suspicion_timeout=2.0, death_timeout=6.0)
        membership.silence("node-3")
        silence_started = clock.now
        live = ["node-0", "node-1", "node-2"]
        death_at = None
        for _ in range(40):
            clock.advance(0.5)
            for name in live:
                membership.beat(name)
            for transition in membership.step():
                if (
                    transition.observer == ROUTER
                    and transition.peer == "node-3"
                    and transition.state == DEAD
                ):
                    death_at = clock.now
            if death_at is not None:
                break
        assert death_at is not None
        # Never before the configured timeout; within it plus one round.
        assert death_at - silence_started >= 6.0
        assert death_at - silence_started <= 6.0 + 0.5


class TestGossipDissemination:
    def test_counters_spread_epidemically(self):
        membership, clock = build(5)
        everyone = membership.members()
        run_protocol(membership, clock, rounds=10, beat=everyone, dt=0.2)
        # Every node's view of every peer has a non-zero counter: the
        # only path for that knowledge is the gossip merge.
        for observer in everyone:
            table = membership.snapshot(observer)
            for peer, view in table.items():
                if peer != observer:
                    assert view["counter"] > 0, (observer, peer)

    def test_per_observer_views_are_independent(self):
        membership, clock = build(3)
        membership.silence("node-2")
        run_protocol(membership, clock, rounds=20, beat=["node-0", "node-1"])
        # Node observers reach their own verdicts about the dead peer.
        for observer in ("node-0", "node-1"):
            assert membership.snapshot(observer)["node-2"]["state"] in (
                SUSPECT,
                DEAD,
            )

    def test_deterministic_given_seed_and_clock(self):
        def run():
            membership, clock = build(4)
            membership.silence("node-3")
            return run_protocol(
                membership, clock, rounds=20, beat=["node-0", "node-1", "node-2"]
            )

        assert run() == run()

    def test_snapshot_shape(self):
        membership, clock = build(2)
        clock.advance(1.5)
        table = membership.snapshot()
        assert set(table) == {"node-0", "node-1"}
        for view in table.values():
            assert view["state"] == ALIVE
            assert view["counter"] == 0
            assert view["silence_seconds"] == pytest.approx(1.5)


class TestRouterHooks:
    """The router is one more observer, and its verdicts drive routing."""

    TOPICS = [f"topic-{i}" for i in range(12)]

    def build_cluster(self, clock=None):
        _db, container = build_notes_app()
        kwargs = {} if clock is None else {"clock": clock}
        awc = AutoWebCache(n_nodes=3, **kwargs)
        awc.install(container.servlet_classes)
        return container, awc

    def warm(self, container):
        for topic in self.TOPICS:
            assert container.get("/view_topic", {"topic": topic}).status == 200

    def test_silent_node_is_detected_and_evicted_by_ticks(self):
        clock = FakeClock()
        container, awc = self.build_cluster(clock)
        try:
            for i, topic in enumerate(self.TOPICS):
                container.post(
                    "/add",
                    {"id": str(i + 1), "topic": topic, "body": "b", "score": "0"},
                )
            self.warm(container)
            victim = awc.router.node_names[0]
            awc.router.silence_node(victim)
            # Routing fails over immediately, before any detection.
            assert all(
                awc.router.owner_name(
                    HttpRequest("GET", "/view_topic", {"topic": t}).cache_key()
                )
                != victim
                for t in self.TOPICS
            )
            # Gossip-paced detection: the router's view walks the
            # silent peer through SUSPECT to DEAD, then evicts it.
            for _ in range(20):
                clock.advance(0.5)
                awc.router.tick()
                if victim not in awc.router.node_names:
                    break
            assert victim not in awc.router.node_names
            assert awc.router.membership.state(victim) == DEAD
            assert victim not in awc.bus.subscriber_names
            self.warm(container)  # the survivors serve everything
        finally:
            awc.uninstall()

    def test_membership_appears_in_cluster_snapshot(self):
        _container, awc = self.build_cluster()
        try:
            table = awc.cluster_snapshot()["membership"]
            assert set(table) == set(awc.router.node_names)
            for view in table.values():
                assert view["state"] == ALIVE
        finally:
            awc.uninstall()
