"""The load simulator: clients -> container -> resources in virtual time.

Requests are executed for real at their (virtual) issue instant; their
measured work is charged to the app-server and database resources to
obtain completion times.  Metrics are collected only for requests issued
after the warm-up phase, matching the paper's "warm the cache for 15
minutes, measure for 30" protocol (scaled down by default; fully
configurable).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field

from repro.cache.autowebcache import AutoWebCache
from repro.db.engine import Database
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel, RequestWork
from repro.sim.meter import WorkMeter
from repro.sim.resources import Resource
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest
from repro.workload.metrics import MetricsCollector, RequestSample
from repro.workload.mix import InteractionMix
from repro.workload.session import ClientSession, SessionConfig


@dataclass
class SimulationConfig:
    """Knobs for one simulation run.

    Defaults are scaled down from the paper's 15 min warm-up / 30 min
    measurement to keep the benchmark suite fast; the harness can dial
    them up for full-fidelity runs.
    """

    n_clients: int = 100
    warmup: float = 60.0
    duration: float = 240.0
    seed: int = 42
    app_workers: int = 1
    db_workers: int = 1
    session: SessionConfig = field(default_factory=SessionConfig)


@dataclass
class SimulationResult:
    """Everything measured in one run."""

    config: SimulationConfig
    metrics: MetricsCollector
    app_utilization: float
    db_utilization: float
    total_requests: int
    errors: int

    @property
    def mean_response_time_ms(self) -> float:
        return self.metrics.overall.mean * 1000.0

    @property
    def hit_rate(self) -> float:
        return self.metrics.reads.hit_rate

    @property
    def throughput(self) -> float:
        """Measured requests per simulated second (measurement window)."""
        if self.config.duration <= 0:
            return 0.0
        return self.metrics.request_count / self.config.duration


class LoadSimulator:
    """Drives ``n_clients`` emulated sessions through the application."""

    def __init__(
        self,
        container: ServletContainer,
        database: Database,
        mix: InteractionMix,
        config: SimulationConfig,
        cost_model: CostModel,
        clock: VirtualClock | None = None,
        awc: AutoWebCache | None = None,
    ) -> None:
        self.container = container
        self.database = database
        self.mix = mix
        self.config = config
        self.cost_model = cost_model
        self.clock = clock or VirtualClock()
        self.meter = WorkMeter(database, awc)
        self.app = Resource("app-server", config.app_workers)
        self.db = Resource("db-server", config.db_workers)
        self._session_ids = itertools.count()
        self._rng = random.Random(config.seed)
        self.errors = 0
        self.total_requests = 0

    def _new_session(self, started_at: float) -> ClientSession:
        session_id = next(self._session_ids)
        return ClientSession(
            session_id=session_id,
            mix=self.mix,
            rng=random.Random(self._rng.getrandbits(64)),
            config=self.config.session,
            started_at=started_at,
        )

    def run(self) -> SimulationResult:
        """The one event loop: issue, execute for real, charge, re-arm."""
        metrics = MetricsCollector()
        end_time = self.config.warmup + self.config.duration
        # Event heap: (time, tiebreak, session).  Sessions re-arm
        # themselves after each completion + think time.
        heap: list[tuple[float, int, ClientSession]] = []
        tiebreak = itertools.count()
        for _ in range(self.config.n_clients):
            start = self._rng.uniform(0.0, self.config.session.think_time_mean)
            session = self._new_session(start)
            heapq.heappush(heap, (start, next(tiebreak), session))

        while heap:
            issue_at, _tb, session = heapq.heappop(heap)
            if issue_at >= end_time:
                continue  # client would issue after the run ends
            self.clock.advance_to(issue_at)
            if session.expired(issue_at):
                session = self._new_session(issue_at)

            planned = session.next_request()
            before = self.meter.snapshot()
            request = HttpRequest(planned.method, planned.uri, dict(planned.params))
            response = self.container.handle(request)
            if response.status != 200:
                self.errors += 1
            work = self.meter.work_since(before, response, planned.is_write)
            session.observe_response(planned, response.body)
            self.total_requests += 1

            completed = self._complete(issue_at, request, work)
            response_time = completed - issue_at

            if issue_at >= self.config.warmup:
                metrics.record(
                    RequestSample(
                        uri=planned.uri,
                        issued_at=issue_at,
                        response_time=response_time,
                        cache_hit=work.cache_hit,
                        is_write=planned.is_write,
                        semantic_hit=work.semantic_hit,
                        miss_reason=work.miss_reason,
                    )
                )
            else:
                metrics.record_warmup()

            next_issue = completed + session.think_time()
            if next_issue < end_time:
                heapq.heappush(heap, (next_issue, next(tiebreak), session))

        return self._result(metrics, end_time)

    # -- the two steps a topology overrides ------------------------------------------

    def _complete(
        self, issue_at: float, request: HttpRequest, work: RequestWork
    ) -> float:
        """Charge ``work`` to the resources; return its completion time."""
        app_demand, db_demand = self.cost_model.demands(work)
        app_done = self.app.schedule(issue_at, app_demand)
        return self.db.schedule(app_done, db_demand) if db_demand > 0 else app_done

    def _result(self, metrics: MetricsCollector, end_time: float) -> SimulationResult:
        return SimulationResult(
            config=self.config,
            metrics=metrics,
            app_utilization=self.app.utilization(end_time),
            db_utilization=self.db.utilization(end_time),
            total_requests=self.total_requests,
            errors=self.errors,
        )
