"""Cluster tier under fire: threaded consistency stress + scaling curve.

Three checks on the sharded cache tier (``repro.cluster``):

1. **4-node, 16-thread consistency stress** -- the mixed read/write
   freshness-floor oracle from the single-node stress, run against a
   woven 4-node cluster through the load-driver's
   :class:`~repro.harness.loadgen.ClusterTarget`.  Every write rides
   the sequence-numbered invalidation bus; no later read may serve a
   page showing fewer bids than the committed floor.  Zero violations
   allowed, and afterwards every node's byte/dependency accounting must
   be exact and every node must have replayed every bus message.

2. **Node-kill failover stress** -- the same oracle with a node
   crashed mid-mix: its keys fail over, cold, to their ring successor
   with zero violations, zero lost invalidations and exact accounting
   on every survivor.

The two stress tables (``benchmarks/results/cluster_stress_*.txt``)
hold only what the tests assert, so a run leaves them unchanged and CI
diffs them; the schedule-dependent counts (hits, stale inserts, the
write the kill landed after, wall time) go to the git-ignored
``*.run.txt`` siblings.

3. **Scaling curve** -- virtual-time throughput vs node count (1/2/4/8
   nodes, synchronous bus), written to
   ``benchmarks/results/cluster_scaling_strong.txt`` (regenerate via
   ``make bench-cluster``).
"""

from __future__ import annotations

import re
import sys
import threading
import time

import pytest

from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.autowebcache import AutoWebCache
from repro.harness.experiments import ExperimentDefaults, run_cluster_scaling_curve
from repro.harness.loadgen import ClusterTarget
from repro.harness.reporting import render_table
from repro.sim.cluster import CLUSTER_SCALING_COST_MODEL
from repro.web.http import HttpRequest

N_NODES = 4
N_THREADS = 16
_CELL = re.compile(r"<td>([^<]*)</td>")


def _nb_of_bids(body: str) -> int:
    cells = _CELL.findall(body)
    assert len(cells) >= 3, f"unexpected item page: {body[:200]}"
    return int(cells[2])


def assert_cluster_accounting_exact(awc: AutoWebCache) -> None:
    """Every node's books balance, and every node saw every message."""
    seq = awc.bus.seq
    for node in awc.router.nodes():
        pages = node.cache.pages
        entries = pages.entries()
        assert pages.total_bytes == sum(entry.size for entry in entries)
        live = set(pages.keys())
        registered = {
            page_key
            for template in pages.dependencies.read_templates()
            for page_key, _vector in pages.dependencies.instances_for(template)
        }
        assert registered <= live
        assert registered == {
            e.key for e in entries if not e.semantic and e.dependencies
        }
        assert node.last_applied_seq == seq, (
            f"{node.name} replayed {node.last_applied_seq}/{seq} messages"
        )
    stats = awc.stats
    assert stats.lookups == (
        stats.hits + stats.semantic_hits + stats.misses + stats.uncacheable
    )
    assert awc.router.open_flights == 0


@pytest.mark.concurrency
def test_cluster_mixed_read_write_zero_violations(figure_report):
    app = build_rubis(RubisDataset(n_users=50, n_items=60))
    awc = AutoWebCache(n_nodes=N_NODES)
    awc.install(app.servlet_classes)
    target = ClusterTarget(app.container, awc)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        n_writers = 4
        n_readers = N_THREADS - n_writers
        hot_items = list(range(1, n_writers + 1))
        floor_lock = threading.Lock()
        committed: dict[int, int] = {}
        for item in hot_items:
            result = app.database.query(
                "SELECT nb_of_bids FROM items WHERE id = ?", (item,)
            )
            committed[item] = int(result.scalar() or 0)
        violations: list[str] = []
        errors: list[str] = []
        barrier = threading.Barrier(N_THREADS)
        bids_per_writer = 40
        reads_per_reader = 80

        def writer(item: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(bids_per_writer):
                    response = target.handle(
                        HttpRequest(
                            "POST",
                            "/rubis/store_bid",
                            {
                                "item": str(item),
                                "user": str(item + 10),
                                "bid": str(2000.0 + i),
                            },
                        )
                    )
                    if response.status != 200:
                        errors.append(f"writer {item}: {response.status}")
                        return
                    with floor_lock:
                        committed[item] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"writer {item}: {type(exc).__name__}: {exc}")

        def reader(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(reads_per_reader):
                    item = hot_items[(index + i) % len(hot_items)]
                    with floor_lock:
                        floor = committed[item]
                    response = target.handle(
                        HttpRequest(
                            "GET", "/rubis/view_item", {"item": str(item)}
                        )
                    )
                    if response.status != 200:
                        errors.append(f"reader {index}: {response.status}")
                        return
                    seen = _nb_of_bids(response.body)
                    if seen < floor:
                        violations.append(
                            f"item {item}: served {seen} bids after "
                            f"{floor} were committed"
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"reader {index}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=writer, args=(item,)) for item in hot_items
        ] + [
            threading.Thread(target=reader, args=(i,)) for i in range(n_readers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        wall = time.perf_counter() - started

        assert not any(t.is_alive() for t in threads), "stress run hung"
        assert errors == []
        assert violations == [], violations[:5]
        assert_cluster_accounting_exact(awc)

        snapshot = target.snapshot()
        total_writes = n_writers * bids_per_writer
        assert snapshot["bus"]["published"] == total_writes
        assert snapshot["bus"]["seq"] == total_writes
        assert snapshot["bus"]["delivered"] == total_writes * N_NODES
        per_node = "  ".join(
            f"{node['name']}:{node['pages']}p/{node['stats']['hits']}h"
            for node in snapshot["nodes"]
        )
        aggregate = snapshot["cluster"]
        # The committed table holds only what this test asserts; the
        # schedule-dependent counts go to the git-ignored ``.run`` file.
        figure_report(
            "cluster_stress_mixed",
            "\n".join(
                [
                    f"Cluster consistency stress: {N_NODES} nodes, "
                    f"{n_readers} readers + {n_writers} writers",
                    f"  committed writes  {total_writes} "
                    f"(bus seq {snapshot['bus']['seq']}, "
                    f"delivered {snapshot['bus']['delivered']})",
                    f"  violations        {len(violations)}",
                    "  accounting        exact on every node",
                ]
            ),
        )
        figure_report(
            "cluster_stress_mixed.run",
            "\n".join(
                [
                    "Cluster consistency stress: this run's "
                    "schedule-dependent counts",
                    f"  hits              {aggregate['hits']}",
                    f"  invalidated       {aggregate['invalidated_pages']}",
                    f"  stale inserts     {aggregate['stale_inserts']}",
                    f"  per node          {per_node}",
                    f"  wall time         {wall:.1f} s",
                ]
            ),
        )
    finally:
        sys.setswitchinterval(old_interval)
        awc.uninstall()


@pytest.mark.concurrency
def test_cluster_node_kill_failover_zero_violations(figure_report):
    """Crash a node mid-mix: its successor takes the shard, nobody lies.

    A 4-node cluster under the same 16-thread floor oracle as the mixed
    stress; once a third of the writes have committed, the node owning
    the hottest item is killed (:meth:`ClusterRouter.fail_node` --
    crash with immediate detection).  Its keys fail over, cold, to
    their ring successor with zero consistency violations, zero lost
    invalidations (a final read of every hot item must show *exactly*
    the committed bid count -- a cached pre-crash page would show
    fewer), and exact byte/dependency accounting on every survivor.
    """
    app = build_rubis(RubisDataset(n_users=50, n_items=60))
    awc = AutoWebCache(n_nodes=N_NODES)
    awc.install(app.servlet_classes)
    target = ClusterTarget(app.container, awc)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        n_writers = 4
        n_readers = N_THREADS - n_writers
        hot_items = list(range(1, n_writers + 1))
        floor_lock = threading.Lock()
        committed: dict[int, int] = {}
        for item in hot_items:
            result = app.database.query(
                "SELECT nb_of_bids FROM items WHERE id = ?", (item,)
            )
            committed[item] = int(result.scalar() or 0)
        baseline = dict(committed)
        violations: list[str] = []
        errors: list[str] = []
        barrier = threading.Barrier(N_THREADS + 1)
        bids_per_writer = 40
        reads_per_reader = 80
        total_writes = n_writers * bids_per_writer
        kill_after = total_writes // 3
        victim_key = HttpRequest(
            "GET", "/rubis/view_item", {"item": str(hot_items[0])}
        ).cache_key()
        victim = awc.router.owner_name(victim_key)
        killed_at_writes = [0]

        def writer(item: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(bids_per_writer):
                    response = target.handle(
                        HttpRequest(
                            "POST",
                            "/rubis/store_bid",
                            {
                                "item": str(item),
                                "user": str(item + 10),
                                "bid": str(3000.0 + i),
                            },
                        )
                    )
                    if response.status != 200:
                        errors.append(f"writer {item}: {response.status}")
                        return
                    with floor_lock:
                        committed[item] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"writer {item}: {type(exc).__name__}: {exc}")

        def reader(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(reads_per_reader):
                    item = hot_items[(index + i) % len(hot_items)]
                    with floor_lock:
                        floor = committed[item]
                    response = target.handle(
                        HttpRequest(
                            "GET", "/rubis/view_item", {"item": str(item)}
                        )
                    )
                    if response.status != 200:
                        errors.append(f"reader {index}: {response.status}")
                        return
                    seen = _nb_of_bids(response.body)
                    if seen < floor:
                        violations.append(
                            f"item {item}: served {seen} bids after "
                            f"{floor} were committed"
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"reader {index}: {type(exc).__name__}: {exc}")

        def killer() -> None:
            try:
                barrier.wait(timeout=10)
                while True:
                    with floor_lock:
                        done = sum(committed.values()) - sum(baseline.values())
                    if done >= kill_after:
                        break
                    time.sleep(0.001)
                awc.router.fail_node(victim)
                killed_at_writes[0] = done
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"killer: {type(exc).__name__}: {exc}")

        threads = (
            [threading.Thread(target=writer, args=(item,)) for item in hot_items]
            + [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
            + [threading.Thread(target=killer)]
        )
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        wall = time.perf_counter() - started

        assert not any(t.is_alive() for t in threads), "stress run hung"
        assert errors == []
        assert violations == [], violations[:5]
        assert victim not in awc.router.node_names
        assert len(awc.router.node_names) == N_NODES - 1
        # Failover really happened: the hot item routes elsewhere now.
        successor = awc.router.owner_name(victim_key)
        assert successor != victim

        # Zero lost invalidations: a final read of every hot item must
        # show the exact committed bid count.  Any surviving cached page
        # predating the last write to its item would under-report.
        for item in hot_items:
            response = target.handle(
                HttpRequest("GET", "/rubis/view_item", {"item": str(item)})
            )
            assert response.status == 200
            assert _nb_of_bids(response.body) == committed[item], item

        # ...and the successor served the hot item: the final read
        # above left its page there.
        assert victim_key in awc.router.node(successor).cache.pages

        assert_cluster_accounting_exact(awc)
        snapshot = target.snapshot()
        assert snapshot["bus"]["seq"] == total_writes
        per_node = "  ".join(
            f"{node['name']}:{node['pages']}p/{node['stats']['hits']}h"
            for node in snapshot["nodes"]
        )
        figure_report(
            "cluster_stress_node_kill",
            "\n".join(
                [
                    f"Node-kill failover stress: {N_NODES} nodes, "
                    f"{n_readers} readers + {n_writers} writers",
                    f"  killed            {victim}, owner of the hot item",
                    f"  failed over to    {successor}, which serves it",
                    f"  committed writes  {total_writes} "
                    f"(bus seq {snapshot['bus']['seq']})",
                    f"  violations        {len(violations)}",
                    "  lost invalidations 0 (final reads exact)",
                    "  accounting        exact on every survivor",
                ]
            ),
        )
        figure_report(
            "cluster_stress_node_kill.run",
            "\n".join(
                [
                    "Node-kill failover stress: this run's "
                    "schedule-dependent counts",
                    f"  killed after      {killed_at_writes[0]}/{total_writes} writes",
                    f"  per node          {per_node}",
                    f"  wall time         {wall:.1f} s",
                ]
            ),
        )
    finally:
        sys.setswitchinterval(old_interval)
        awc.uninstall()


NODE_COUNTS = [1, 2, 4, 8]
SCALING_CLIENTS = 700
SCALING_DEFAULTS = ExperimentDefaults(warmup=20.0, duration=60.0)


def test_cluster_scaling_throughput_monotone(figure_report):
    outcomes = run_cluster_scaling_curve(
        NODE_COUNTS,
        n_clients=SCALING_CLIENTS,
        defaults=SCALING_DEFAULTS,
        cost_model=CLUSTER_SCALING_COST_MODEL,
    )
    rows = []
    for outcome in outcomes:
        result = outcome.result
        rows.append(
            [
                outcome.n_nodes,
                round(outcome.throughput, 1),
                round(outcome.throughput / outcomes[0].throughput, 2),
                round(outcome.mean_ms, 1),
                round(result.metrics.overall.percentile(95) * 1000, 1),
                round(outcome.hit_rate, 3),
                round(result.app_utilization, 3),
                round(result.db_utilization, 3),
                result.bus_messages,
            ]
        )
    report = render_table(
        f"Cluster scaling (strong bus, R=1): RUBiS bidding mix, "
        f"{SCALING_CLIENTS} clients (calibrated heavy app tier)",
        ["nodes", "thr (r/s)", "speedup", "mean ms", "p95 ms", "hit rate",
         "node util", "db util", "bus msgs"],
        rows,
    )
    figure_report("cluster_scaling_strong", report)

    throughputs = [outcome.throughput for outcome in outcomes]
    for smaller, larger in zip(throughputs, throughputs[1:]):
        assert larger > smaller, throughputs
    assert throughputs[-1] > 1.5 * throughputs[0]
    hit_rates = [outcome.hit_rate for outcome in outcomes]
    assert max(hit_rates) - min(hit_rates) < 0.1, hit_rates
    assert all(outcome.result.errors == 0 for outcome in outcomes)
