"""Experiment drivers, one per figure in the paper's evaluation.

Every driver builds a *fresh* application instance per cell (load
point x configuration) so database mutations from one run cannot leak
into another, installs AutoWebCache when the configuration asks for it,
runs the load simulator, and always unweaves afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.apps.rubis import RubisDataset, build_rubis
from repro.apps.rubis.workload import bidding_mix
from repro.apps.rubis.workload import browsing_mix as rubis_browsing_mix
from repro.apps.tpcw import TpcwDataset, build_tpcw
from repro.apps.tpcw.app import standard_semantics
from repro.apps.tpcw.workload import browsing_mix as tpcw_browsing_mix
from repro.apps.tpcw.workload import shopping_mix
from repro.cache.analysis import InvalidationPolicy
from repro.cache.autowebcache import AutoWebCache
from repro.cache.semantics import SemanticsRegistry
from repro.harness.codesize import measure_components
from repro.harness.profiles import EXTENDED, PAPER
from repro.sim.clock import VirtualClock
from repro.sim.cluster import (
    ClusterCostModel,
    ClusterLoadSimulator,
    ClusterSimulationResult,
)
from repro.sim.costs import CostModel, RUBIS_COST_MODEL, TPCW_COST_MODEL
from repro.sim.runner import LoadSimulator, SimulationConfig, SimulationResult
from repro.workload.session import SessionConfig


@dataclass(frozen=True)
class ExperimentDefaults:
    """Shared timing/sizing knobs; scaled down from the paper's 15 min
    warm-up / 30 min measurement for benchmark-suite speed."""

    warmup: float = 90.0
    duration: float = 240.0
    seed: int = 7
    think_time_mean: float = 7.0
    session_duration: float = 900.0


@dataclass(frozen=True)
class RunSpec:
    """One simulated configuration."""

    app: str  # "rubis" | "tpcw"
    cached: bool = True
    policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY
    forced_miss: bool = False
    best_seller_window: bool = False  # TPC-W Figure 15 optimisation
    replacement: str = "unbounded"
    capacity: int | None = None
    #: Byte budget for the page cache (size-aware eviction); None means
    #: no byte bound.
    max_bytes: int | None = None
    #: Weak (time-lagged) consistency: default TTL in seconds applied
    #: to every page instead of write-driven invalidation.
    weak_ttl: float | None = None
    #: Workload mix: "default" (bidding for RUBiS, shopping for TPC-W)
    #: or "browsing".
    mix: str = "default"
    defaults: ExperimentDefaults = field(default_factory=ExperimentDefaults)

    @property
    def label(self) -> str:
        if not self.cached:
            return "No cache"
        if self.forced_miss:
            return "AutoWebCache (forced miss)"
        if self.weak_ttl is not None:
            return f"Weak TTL {self.weak_ttl:.0f}s"
        if self.best_seller_window:
            return "Optimization for Semantics"
        return "AutoWebCache"


@dataclass
class RunOutcome:
    """One cell's results: simulation metrics + cache-side statistics."""

    spec: RunSpec
    n_clients: int
    result: SimulationResult
    cache_stats: object | None  # CacheStats when cached
    analysis_growth: list[tuple[int, int]]
    weave_report: object | None

    @property
    def mean_ms(self) -> float:
        return self.result.mean_response_time_ms

    @property
    def hit_rate(self) -> float:
        return self.result.hit_rate


def _build_cell(
    app: str, mix_name: str, defaults: ExperimentDefaults, window: bool
):
    """A fresh application with its mix, cost model and semantics."""
    if app == "rubis":
        application = build_rubis(RubisDataset())
        mixes = {"default": bidding_mix, "browsing": rubis_browsing_mix}
        model, semantics = RUBIS_COST_MODEL, None
    elif app == "tpcw":
        application = build_tpcw(TpcwDataset(), ad_seed=defaults.seed)
        mixes = {"default": shopping_mix, "browsing": tpcw_browsing_mix}
        model, semantics = TPCW_COST_MODEL, standard_semantics(window)
    else:
        raise ValueError(f"unknown app {app!r}")
    mix = mixes.get(mix_name, mixes["default"])(application.dataset)
    return application, mix, model, semantics


def _simulation_config(
    defaults: ExperimentDefaults, n_clients: int
) -> SimulationConfig:
    return SimulationConfig(
        n_clients=n_clients,
        warmup=defaults.warmup,
        duration=defaults.duration,
        seed=defaults.seed,
        session=SessionConfig(
            think_time_mean=defaults.think_time_mean,
            session_duration=defaults.session_duration,
        ),
    )


def run_cell(
    spec: RunSpec, n_clients: int, cost_model: CostModel | None = None
) -> RunOutcome:
    """Simulate one (configuration, client count) cell."""
    clock = VirtualClock()
    app, mix, model, semantics = _build_cell(
        spec.app, spec.mix, spec.defaults, spec.best_seller_window
    )
    awc = None
    weave_report = None
    if spec.cached:
        if spec.weak_ttl is not None:
            semantics = semantics or SemanticsRegistry()
            semantics.set_default_ttl(spec.weak_ttl)
        awc = AutoWebCache(
            # Every figure and ablation measures the paper's system.
            **PAPER,
            policy=spec.policy,
            replacement=spec.replacement,
            capacity=spec.capacity,
            max_bytes=spec.max_bytes,
            semantics=semantics,
            clock=clock.now,
            forced_miss=spec.forced_miss,
        )
        weave_report = awc.install(app.servlet_classes)
    try:
        simulator = LoadSimulator(
            container=app.container,
            database=app.database,
            mix=mix,
            config=_simulation_config(spec.defaults, n_clients),
            cost_model=cost_model or model,
            clock=clock,
            awc=awc,
        )
        result = simulator.run()
    finally:
        if awc is not None:
            awc.uninstall()
    growth = []
    if awc is not None:
        # Samples are taken on a miss; the closing one carries the run's
        # totals, so the last x is lookups processed, not "lookups at
        # the last new entry".
        (node,) = awc.router.nodes()
        analysis = node.cache.analysis_cache
        growth = [
            *analysis.stats.growth,
            (analysis.stats.lookups, analysis.entry_count),
        ]
    return RunOutcome(
        spec=spec,
        n_clients=n_clients,
        result=result,
        cache_stats=awc.cache.stats if awc else None,
        analysis_growth=growth,
        weave_report=weave_report,
    )


@dataclass
class ClusterOutcome:
    """One cluster cell: the sim result plus cluster accounting."""

    n_nodes: int
    n_clients: int
    result: ClusterSimulationResult

    @property
    def mean_ms(self) -> float:
        return self.result.mean_response_time_ms

    @property
    def hit_rate(self) -> float:
        return self.result.hit_rate

    @property
    def throughput(self) -> float:
        return self.result.throughput


def run_cluster_cell(
    n_nodes: int,
    n_clients: int,
    app: str = "rubis",
    mix_name: str = "default",
    defaults: ExperimentDefaults | None = None,
    cost_model: ClusterCostModel | None = None,
) -> ClusterOutcome:
    """Simulate one (node count, client count) cluster cell.

    Builds a fresh application, weaves an ``n_nodes`` ring
    (:class:`AutoWebCache`) over it, and drives the cluster simulator
    (per-node app resources, one shared database resource, and the
    synchronous invalidation bus).
    """
    defaults = defaults or ExperimentDefaults()
    clock = VirtualClock()
    application, mix, base_model, semantics = _build_cell(
        app, mix_name, defaults, window=False
    )
    awc = AutoWebCache(
        # The ring is not in the paper: cluster cells measure EXTENDED,
        # at the paper's invalidation rung.
        **EXTENDED,
        policy=InvalidationPolicy.EXTRA_QUERY,
        n_nodes=n_nodes,
        semantics=semantics,
        clock=clock.now,
    )
    awc.install(application.servlet_classes)
    try:
        simulator = ClusterLoadSimulator(
            container=application.container,
            database=application.database,
            mix=mix,
            config=_simulation_config(defaults, n_clients),
            cost_model=cost_model or ClusterCostModel(base=base_model),
            awc=awc,
            clock=clock,
        )
        result = simulator.run()
    finally:
        awc.uninstall()
    return ClusterOutcome(n_nodes=n_nodes, n_clients=n_clients, result=result)


def run_cluster_scaling_curve(
    node_counts: list[int],
    n_clients: int,
    app: str = "rubis",
    defaults: ExperimentDefaults | None = None,
    cost_model: ClusterCostModel | None = None,
) -> list[ClusterOutcome]:
    """Throughput / hit-rate vs node count at a fixed client load."""
    return [
        run_cluster_cell(
            n, n_clients, app=app, defaults=defaults, cost_model=cost_model
        )
        for n in node_counts
    ]


# ---------------------------------------------------------------------------
# Figure drivers
# ---------------------------------------------------------------------------


def run_response_time_curve(
    spec: RunSpec, client_counts: list[int]
) -> list[RunOutcome]:
    """Figures 13/14/15: mean response time vs. number of clients."""
    return [run_cell(spec, n) for n in client_counts]


def run_per_request_breakdown(spec: RunSpec, n_clients: int) -> RunOutcome:
    """Figures 16/17/18/19: one loaded run with per-type detail."""
    return run_cell(spec, n_clients)


def run_analysis_cache_experiment(
    spec: RunSpec, n_clients: int
) -> tuple[list[tuple[int, int]], int]:
    """Figure 4: analysis-cache entries vs. lookups processed, and the
    (read template, write) pairs the write path considered -- analysed,
    or answered by index / lineage pruning without a lookup."""
    outcome = run_cell(spec, n_clients)
    counters = outcome.cache_stats.snapshot()["cluster"]
    considered = (
        counters["pair_analyses"]
        + counters["templates_skipped_by_index"]
        + counters["templates_skipped_by_lineage"]
    )
    return outcome.analysis_growth, considered


def run_code_size_experiment() -> list[tuple[str, int, int, int]]:
    """Figure 20: (component, files, total lines, code lines)."""
    return [
        (c.name, c.files, c.lines, c.code_lines) for c in measure_components()
    ]


def improvement_percent(no_cache_ms: float, cached_ms: float) -> float:
    """Response-time improvement as the paper reports it."""
    if no_cache_ms <= 0:
        return 0.0
    return 100.0 * (no_cache_ms - cached_ms) / no_cache_ms


def quick_defaults() -> ExperimentDefaults:
    """Short windows for tests: a few simulated minutes."""
    return ExperimentDefaults(warmup=30.0, duration=90.0)


def scaled_spec(spec: RunSpec, defaults: ExperimentDefaults) -> RunSpec:
    """Spec with replaced timing defaults."""
    return replace(spec, defaults=defaults)
