"""Gossip-style membership: heartbeats, suspicion, failure detection.

PR 2's router changed membership only through explicit ``add_node`` /
``remove_node`` calls executed under bus quiescence -- fine for planned
operations, useless for *crashes*: a node that stops responding never
announces its own death.  This module adds the standard SWIM-flavoured
detector crash failover needs:

- every node keeps a **heartbeat counter** it increments while alive;
- counters disseminate **epidemically**: each gossip step, every live
  observer pushes its table to ``fanout`` random peers, and receivers
  adopt any higher counter they see;
- an observer that has not seen a peer's counter advance within
  ``suspicion_timeout`` marks it SUSPECT, and DEAD after
  ``death_timeout`` -- a *local* verdict, reached without any global
  coordination (and therefore without quiescing the invalidation bus).

The router participates as one more observer (``ROUTER``): its view is
the authoritative one for routing decisions (failover to the ring
successor, crash eviction).  Determinism: the gossip peer choice is driven by
a seeded RNG and the clock is injectable, so tests and the simulator
can replay convergence exactly.

States are monotone per incident -- ALIVE -> SUSPECT -> DEAD -- but a
counter advance revives a SUSPECT (false alarm) while DEAD is sticky:
a dead node missed bus messages, so it must rejoin through the router
(fresh shard, fresh bus subscription), never silently reappear.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ClusterError

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: The router's observer name (not a cache node, never gossiped about).
ROUTER = "<router>"


@dataclass
class PeerView:
    """One observer's knowledge of one peer."""

    counter: int
    #: Local time the counter last advanced *in this observer's view*.
    last_advance: float
    state: str = ALIVE


@dataclass(frozen=True)
class Transition:
    """One membership state change in one observer's view."""

    observer: str
    peer: str
    state: str


class GossipMembership:
    """Heartbeat-counter gossip with per-observer suspicion verdicts.

    Thread-safety: one leaf lock guards all views; no callback runs
    under it (``step`` *returns* transitions, the caller acts on them),
    so it can never participate in a lock-order cycle with the router
    or bus locks.
    """

    def __init__(
        self,
        suspicion_timeout: float = 2.0,
        death_timeout: float = 6.0,
        fanout: int = 2,
        clock: Callable[[], float] = time.time,
        seed: int = 0,
    ) -> None:
        if death_timeout <= suspicion_timeout:
            raise ClusterError(
                "death_timeout must exceed suspicion_timeout "
                f"({death_timeout} <= {suspicion_timeout})"
            )
        self.suspicion_timeout = suspicion_timeout
        self.death_timeout = death_timeout
        self.fanout = fanout
        self.clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: observer -> peer -> view.  The router observer exists from
        #: construction; node observers appear on :meth:`register`.
        self._views: dict[str, dict[str, PeerView]] = {ROUTER: {}}
        #: Authoritative self-counters (a real deployment would keep
        #: each on its own host; in-process they live here, but only
        #: :meth:`beat` for that node may advance one).
        self._counters: dict[str, int] = {}
        #: When the previous :meth:`step` ran -- the suspicion sweep
        #: only counts silence observed while the protocol was
        #: actually stepping (see the outage credit in ``step``).
        self._last_step: float | None = None
        #: Bumped (under the lock) whenever a view may have gained,
        #: lost or re-judged a peer: register, forget, silence, a step
        #: that produced a transition, a merge that taught a peer.  The
        #: router's placement snapshot is replaced by every move.
        self.version = 0
        #: Called (under the lock) whenever ``version`` moves; the router
        #: swaps its placement snapshot here, so a warm route reads no
        #: version.
        self.on_change: Callable[[], object] | None = None

    def _changed(self) -> None:
        """A view may have gained, lost or re-judged a peer (lock held)."""
        self.version += 1
        if self.on_change is not None:
            self.on_change()

    # -- membership of the membership -------------------------------------------------

    def register(self, name: str) -> None:
        """Add ``name`` as a live, gossiping node known to everyone."""
        now = self.clock()
        with self._lock:
            if name in self._counters:
                raise ClusterError(f"{name!r} is already a gossip member")
            self._counters[name] = 0
            self._views[name] = {
                peer: PeerView(view.counter, now, view.state)
                for peer, view in self._views[ROUTER].items()
            }
            for observer in self._views:
                if observer != name:
                    self._views[observer][name] = PeerView(0, now)
            self._changed()

    def forget(self, name: str) -> None:
        """Remove ``name`` entirely (a planned leave, not a death)."""
        with self._lock:
            self._counters.pop(name, None)
            self._views.pop(name, None)
            for table in self._views.values():
                table.pop(name, None)
            self._changed()

    def members(self) -> list[str]:
        with self._lock:
            return sorted(self._counters)

    # -- the protocol ------------------------------------------------------------------

    def beat(self, name: str) -> None:
        """``name`` increments its own heartbeat counter (it is alive).

        The advance is only visible to observers after gossip carries
        it -- except to ``name`` itself, whose own row updates here.
        """
        now = self.clock()
        with self._lock:
            if name not in self._counters:
                return  # crashed/removed nodes no longer beat
            self._counters[name] += 1
            own = self._views[name].get(name)
            counter = self._counters[name]
            if own is None:
                self._views[name][name] = PeerView(counter, now)
            else:
                own.counter = counter
                own.last_advance = now
                if own.state == SUSPECT:
                    own.state = ALIVE

    def silence(self, name: str) -> None:
        """Simulate a crash: ``name`` stops beating and gossiping.

        Its counter freezes, so every observer's suspicion timer for it
        starts running out.  (Tests and the router's ``fail_node`` use
        this; a real crash is just the absence of calls.)
        """
        with self._lock:
            self._counters.pop(name, None)
            self._views.pop(name, None)
            self._changed()

    def step(self, now: float | None = None) -> list[Transition]:
        """One protocol round: gossip exchange, then suspicion sweep.

        Returns every state transition the round produced, across all
        observers -- the router reacts to transitions in *its* view and
        ignores the rest (they model what each node locally believes).
        """
        transitions: list[Transition] = []
        with self._lock:
            if now is None:
                now = self.clock()
            # Outage credit: suspicion measures *observed* silence, in
            # the spirit of SWIM's protocol-period clock.  If the
            # detector itself was not stepping (idle caller, paused
            # process), that gap says nothing about any peer -- without
            # this credit, the first tick after an idle stretch longer
            # than the timeouts would declare every peer DEAD at once,
            # healthy beating nodes included (their fresh counters
            # have not gossiped anywhere yet), collapsing the ring.
            # Shifting every timer by the gap restarts detection:
            # a genuinely dead peer is still caught within
            # ``death_timeout`` of resumed stepping.
            if self._last_step is None:
                # First step ever: observation starts now, so no
                # silence has been observed yet -- registration may
                # have happened arbitrarily long ago.
                for table in self._views.values():
                    for view in table.values():
                        view.last_advance = now
            else:
                idle = now - self._last_step
                if idle > self.suspicion_timeout:
                    for table in self._views.values():
                        for view in table.values():
                            view.last_advance = min(
                                view.last_advance + idle, now
                            )
            self._last_step = now
            # Gossip: each live observer pushes its table to `fanout`
            # random peers (push-only epidemic dissemination).
            gossipers = sorted(self._views)
            for observer in gossipers:
                if observer != ROUTER and observer not in self._counters:
                    continue  # silenced mid-iteration
                peers = [
                    peer
                    for peer in gossipers
                    if peer != observer and peer in self._views
                ]
                if not peers:
                    continue
                for target in self._rng.sample(
                    peers, min(self.fanout, len(peers))
                ):
                    self._merge(observer, target, now)
            # Suspicion sweep: every observer judges every peer by the
            # age of the last counter advance it has *seen*.
            for observer, table in self._views.items():
                for peer, view in table.items():
                    if peer == observer or view.state == DEAD:
                        continue
                    age = now - view.last_advance
                    if view.state == ALIVE and age >= self.suspicion_timeout:
                        view.state = SUSPECT
                        transitions.append(Transition(observer, peer, SUSPECT))
                    if view.state == SUSPECT and age >= self.death_timeout:
                        view.state = DEAD
                        transitions.append(Transition(observer, peer, DEAD))
            if transitions:
                self._changed()
        return transitions

    def _merge(self, source: str, target: str, now: float) -> None:
        """Push ``source``'s table into ``target`` (lock held)."""
        source_table = self._views[source]
        target_table = self._views[target]
        for peer, seen in source_table.items():
            if peer == target:
                continue
            mine = target_table.get(peer)
            if mine is None:
                target_table[peer] = PeerView(seen.counter, now, seen.state)
                self._changed()
            elif seen.counter > mine.counter:
                mine.counter = seen.counter
                mine.last_advance = now
                if mine.state == SUSPECT:
                    mine.state = ALIVE  # false alarm: it beat after all

    # -- verdicts ---------------------------------------------------------------------

    def state(self, peer: str, observer: str = ROUTER) -> str:
        with self._lock:
            view = self._views.get(observer, {}).get(peer)
            if view is None:
                raise ClusterError(
                    f"{observer!r} has no view of {peer!r}"
                )
            return view.state

    def is_alive(self, peer: str, observer: str = ROUTER) -> bool:
        """Routable?  ALIVE and SUSPECT both route (suspicion is a
        *hint*; only DEAD redirects traffic -- SWIM's standard hedge
        against false positives)."""
        with self._lock:
            view = self._views.get(observer, {}).get(peer)
            return view is not None and view.state != DEAD

    def snapshot(self, observer: str = ROUTER) -> dict[str, dict]:
        """Observer's table for observability exposition."""
        now = self.clock()
        with self._lock:
            table = self._views.get(observer, {})
            return {
                peer: {
                    "state": view.state,
                    "counter": view.counter,
                    "silence_seconds": max(0.0, now - view.last_advance),
                }
                for peer, view in sorted(table.items())
            }
