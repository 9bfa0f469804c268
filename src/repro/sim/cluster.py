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

from repro.cache.autowebcache import AutoWebCache
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
    request on a ring.  ``awc`` must be an :class:`AutoWebCache`
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
        awc: AutoWebCache,
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

    def _complete(
        self, issue_at: float, request: HttpRequest, work: RequestWork
    ) -> float:
        model = self.cost_model
        app_resource = self.apps[self.awc.router.owner_name(request.cache_key())]
        app_demand, db_demand = model.demands(work)
        app_done = app_resource.schedule(issue_at, app_demand)
        completed = (
            self.db.schedule(app_done, db_demand) if db_demand > 0 else app_done
        )
        if work.is_write and work.updates > 0 and len(self.apps) > 1:
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
        return completed

    def _result(
        self, metrics: MetricsCollector, end_time: float
    ) -> ClusterSimulationResult:
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
