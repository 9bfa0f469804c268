"""Cluster cost model + simulator: scaling curves in virtual time.

The single-node simulator (:mod:`repro.sim.runner`) charges each
request's measured work to one app-server resource.  The cluster
variant gives every cache node its own app-server resource and routes
each request to the node that owns its cache key (the same consistent
hash the real router uses), over one shared database resource.  Writes
pay the invalidation bus: the response is not complete until every
node has replayed the invalidation (the bus is synchronous), so a
write's completion time is the *maximum* over the remote replay
completions -- per-node service plus a propagation delay.

This yields the two curves the harness CLI emits (``python -m repro
cluster``): throughput vs node count (the app tier parallelises; the
shared database eventually caps it) and hit rate vs ring size (near
flat: placement is deterministic, so sharding splits the key space
without duplicating or losing entries).

FCFS note: with N independent app resources, database arrivals are no
longer globally monotone; :class:`~repro.sim.resources.Resource`
tolerates this (service order may locally deviate from FCFS), which is
an acceptable approximation for a capacity model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.awc import ClusterAutoWebCache
from repro.db.engine import Database
from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel, RequestWork
from repro.sim.resources import Resource
from repro.sim.runner import LoadSimulator, SimulationConfig, SimulationResult
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest
from repro.workload.metrics import MetricsCollector
from repro.workload.mix import InteractionMix


@dataclass(frozen=True)
class ClusterCostModel:
    """Per-node service demands plus invalidation-bus costs.

    ``base`` prices the request work exactly as the single-node model
    does; the cluster adds the front-end router hop and, for writes,
    the bus broadcast: each node replays the invalidation
    (``bus_apply_cost`` of its own CPU) after ``bus_delay`` seconds of
    propagation.
    """

    base: CostModel = field(default_factory=CostModel)
    #: Consistent-hash lookup + dispatch at the front end, per request.
    router_cost: float = 0.0001
    #: One-way propagation latency of a bus message (LAN-ish).
    bus_delay: float = 0.0005
    #: CPU a node spends replaying one invalidation message.  The
    #: per-intersection cost on top comes from the measured work.
    bus_apply_cost: float = 0.0002
    #: CPU a secondary spends storing one replica write-through copy
    #: (clone + page-store insert; no recomputation).
    replica_copy_cost: float = 0.0002

    def demands(self, work: RequestWork) -> tuple[float, float]:
        app, db = self.base.demands(work)
        return app + self.router_cost, db


def _heavy_rubis_base() -> CostModel:
    from dataclasses import replace

    from repro.sim.costs import RUBIS_COST_MODEL

    return replace(
        RUBIS_COST_MODEL,
        app_base=RUBIS_COST_MODEL.app_base * 8,
        app_per_kb=RUBIS_COST_MODEL.app_per_kb * 4,
    )


#: Calibration for the scaling benchmark: the app tier is priced so a
#: single node saturates around ~500 RUBiS clients, making the
#: throughput-vs-node-count knee visible at benchmark-friendly client
#: counts (the stock RUBiS model needs ~1600+ clients to pin one node,
#: which costs minutes of wall clock per cell for the same curve shape).
CLUSTER_SCALING_COST_MODEL = ClusterCostModel(base=_heavy_rubis_base())


@dataclass
class ClusterSimulationResult(SimulationResult):
    """Single-node result shape plus cluster-side accounting."""

    n_nodes: int = 1
    node_utilizations: dict[str, float] = field(default_factory=dict)
    bus_messages: int = 0
    cluster_snapshot: dict = field(default_factory=dict)


class ClusterLoadSimulator(LoadSimulator):
    """Drives emulated clients through a sharded cache cluster.

    The event loop is :class:`LoadSimulator`'s; this class only prices a
    request on a ring.  ``awc`` must be a :class:`ClusterAutoWebCache`
    already installed over the container's servlet classes: the
    simulator asks its router which node owns each request so
    virtual-time capacity matches the real placement.
    """

    def __init__(
        self,
        container: ServletContainer,
        database: Database,
        mix: InteractionMix,
        config: SimulationConfig,
        cost_model: ClusterCostModel,
        awc: ClusterAutoWebCache,
        clock: VirtualClock | None = None,
    ) -> None:
        if not awc.router.node_names:
            raise SimulationError("cluster simulator needs at least one node")
        super().__init__(
            container, database, mix, config, cost_model, clock=clock, awc=awc
        )
        self.awc = awc
        #: One app-server station per node (the base class's single
        #: ``app`` station stays idle).
        self.apps = {
            name: Resource(f"app:{name}", config.app_workers)
            for name in awc.router.node_names
        }
        #: Bounded-staleness bus: writes do not barrier on remote
        #: replay; the simulator drives delivery from virtual time
        #: (the bus's own publish-side shedding plus this opportunistic
        #: flush keep the measured lag under the bound).
        self._bounded = awc.bus.mode == "bounded"
        #: Drain cadence sets the staleness/recompute-rate trade: every
        #: drain re-dooms the hot pages bid on since the last one, and
        #: each doom buys an expensive recompute on the key's replica
        #: pair.  0.4x the bound keeps measured lag comfortably inside
        #: the bound while staying under the bus's own publish-side
        #: shed threshold (half the bound), so sheds remain an
        #: exceptional backpressure signal rather than the steady state.
        self._flush_age = awc.bus.staleness_bound * 0.4
        #: Asynchronous background CPU owed by each node (bounded-mode
        #: bus replays, replica write-through copies), folded into the
        #: node's next scheduled request.  Scheduling this work directly
        #: at its future completion timestamp would push the target's
        #: single FCFS timeline past that instant and block its earlier
        #: arrivals behind pure idle time -- a modelling artefact that
        #: cascades cluster-wide at large N.  Deferral charges the same
        #: CPU while keeping each node's arrival stream monotone.
        self._deferred = {name: 0.0 for name in self.apps}

    def _complete(
        self, issue_at: float, request: HttpRequest, work: RequestWork
    ) -> float:
        model = self.cost_model
        router = self.awc.router
        owner = router.owner_name(request.cache_key())
        app_resource = self.apps[owner]
        app_demand, db_demand = model.demands(work)
        # Settle the background CPU this node owes (bus replays,
        # replica copies) as a surcharge on its next request.
        app_demand += self._deferred[owner]
        self._deferred[owner] = 0.0
        app_done = app_resource.schedule(issue_at, app_demand)
        completed = (
            self.db.schedule(app_done, db_demand) if db_demand > 0 else app_done
        )
        if work.is_write and work.updates > 0 and len(self.apps) > 1:
            if self._bounded:
                # Bounded-staleness bus: the replay still costs
                # every other node CPU, but the write response does
                # not wait for it -- the barrier (the max() below)
                # is exactly what this mode removes.
                for name in self._deferred:
                    if name != owner:
                        self._deferred[name] += model.bus_apply_cost
            else:
                # Synchronous bus: every other node replays the
                # invalidation before the write response is sent.
                completed = max(
                    completed,
                    max(
                        resource.schedule(
                            completed + model.bus_delay,
                            model.bus_apply_cost,
                        )
                        for resource in self.apps.values()
                        if resource is not app_resource
                    ),
                )
        if (
            router.replication > 1
            and not work.is_write
            and not work.cache_hit
            and work.miss_reason is not None
        ):
            # Write-through replication: a cacheable miss stores the
            # recomputed page on its secondaries too.  The copy is a
            # clone + page-store insert (no recomputation), charged
            # to each secondary as background work.
            for name in router.replica_names(request.cache_key())[1:]:
                if name != owner and name in self._deferred:
                    self._deferred[name] += model.replica_copy_cost
        if self._bounded and self.awc.bus.oldest_age(issue_at) >= self._flush_age:
            self.awc.bus.flush()
        return completed

    def _result(
        self, metrics: MetricsCollector, end_time: float
    ) -> ClusterSimulationResult:
        if self._bounded:
            # Deliver the residue so the final snapshot's staleness
            # accounting covers every published message.
            self.awc.bus.flush()
        utilisations = {
            name: resource.utilization(end_time)
            for name, resource in self.apps.items()
        }
        return ClusterSimulationResult(
            config=self.config,
            metrics=metrics,
            app_utilization=(
                sum(utilisations.values()) / len(utilisations)
                if utilisations
                else 0.0
            ),
            db_utilization=self.db.utilization(end_time),
            total_requests=self.total_requests,
            errors=self.errors,
            n_nodes=len(self.apps),
            node_utilizations=utilisations,
            bus_messages=self.awc.bus.stats.published,
            cluster_snapshot=self.awc.cluster_snapshot(),
        )
