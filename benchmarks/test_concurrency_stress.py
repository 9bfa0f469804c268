"""Concurrency stress: 16 real threads against the woven RUBiS app.

Two barrages, mirroring how the paper's Tomcat deployment actually gets
hurt:

1. **Hot-key dogpile** -- a deterministic rendezvous first: all 16
   threads are provably parked on one flight before the leader is
   allowed to compute, so exactly one servlet execution serves
   N_THREADS requests (15 coalesced serves, no schedule dependence, no
   retries).  Then the realistic barrage: every thread hammers the item
   page while a background writer keeps invalidating it, with zero
   errors and exact accounting.

2. **Mixed read/write consistency** -- readers assert a monotonic
   freshness floor: once a bid's write request completes, no later read
   may serve a page showing fewer bids.  Zero violations allowed, and
   the cache's byte/dependency accounting must be exact afterwards.

Results land in ``benchmarks/results/concurrency_stress_dogpile.txt``
and ``benchmarks/results/concurrency_stress_mixed.txt``: only what the
tests assert, so a run leaves them unchanged and CI diffs them.  The
schedule-dependent counts (hits, coalesced misses, stale inserts,
timings) go to the git-ignored ``*.run.txt`` siblings.
"""

from __future__ import annotations

import re
import sys
import threading
import time

import pytest

from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.autowebcache import AutoWebCache
from repro.cache.flight import Flight
from repro.harness.loadgen import ThreadedLoadDriver, hot_key_factory
from repro.web.http import HttpRequest

N_THREADS = 16
_CELL = re.compile(r"<td>([^<]*)</td>")


def _nb_of_bids(body: str) -> int:
    """Third data cell of the ViewItem table (the bid count)."""
    cells = _CELL.findall(body)
    assert len(cells) >= 3, f"unexpected item page: {body[:200]}"
    return int(cells[2])


def assert_cache_accounting_exact(awc: AutoWebCache) -> None:
    (node,) = awc.router.nodes()
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
    expected = {e.key for e in entries if not e.semantic and e.dependencies}
    assert registered == expected
    stats = awc.stats
    assert stats.lookups == (
        stats.hits + stats.semantic_hits + stats.misses + stats.uncacheable
    )
    assert awc.cache.open_flights == 0


@pytest.mark.concurrency
def test_hot_key_dogpile_coalesces(figure_report):
    # Two phases.  The rendezvous proves the coalescing property
    # deterministically: the leader is parked on its own flight until
    # every other thread has joined as a waiter, so the one-execution
    # outcome is guaranteed by construction, on any schedule, checked
    # locks included -- the bounded-retry band-aid this replaces is gone.
    # The barrage then exercises the machinery under a realistic
    # invalidation storm, asserting correctness (zero errors, exact
    # accounting), which never was schedule-dependent.
    rendezvous_coalesced = _rendezvous_dogpile()
    assert rendezvous_coalesced == N_THREADS - 1
    _dogpile_barrage(figure_report, rendezvous_coalesced)


def _rendezvous_dogpile() -> int:
    """All waiters provably parked before the leader computes.

    The flight is the rendezvous point: ``check`` and ``join_flight``
    are wrapped (on the cache instance; the aspects call them through
    the facade) so the leader, whose check opened the flight, blocks
    until ``flight.waiters`` shows every other thread joined.  Each
    waiter joined only after its own cache check missed, so when the
    leader finally computes and publishes, exactly N_THREADS-1
    coalesced serves follow -- not "usually", but as an invariant.
    """
    app = build_rubis(RubisDataset(n_users=50, n_items=60))
    awc = AutoWebCache()
    awc.install(app.servlet_classes)
    try:
        cache = awc.cache
        hot_uri, hot_params = "/rubis/view_item", {"item": "1"}
        hot_key = HttpRequest("GET", hot_uri, dict(hot_params)).cache_key()
        release = threading.Event()
        original_check, original_join = cache.check, cache.join_flight

        def rendezvous_check(request):
            found = original_check(request)
            if type(found) is Flight and found.key == hot_key:
                parked = release.wait(timeout=30.0)
                assert parked, "waiters never all parked on the flight"
            return found

        def rendezvous_join(key: str):
            flight, is_leader = original_join(key)
            if key == hot_key and not is_leader and flight.waiters >= N_THREADS - 1:
                release.set()
            return flight, is_leader

        cache.check = rendezvous_check
        cache.join_flight = rendezvous_join
        try:
            driver = ThreadedLoadDriver(
                app.container,
                hot_key_factory(hot_uri, hot_params),
                n_threads=N_THREADS,
                iterations=1,
            )
            result = driver.run(timeout=60.0)
        finally:
            del cache.check, cache.join_flight  # drop the instance-level wrappers
        assert result.errors == []
        assert result.server_errors == 0
        assert result.requests == N_THREADS
        stats = awc.stats
        assert stats.inserts == 1, "rendezvous must collapse to one compute"
        assert stats.coalesced_hits == N_THREADS - 1
        assert stats.hits == 0
        assert_cache_accounting_exact(awc)
        return stats.coalesced_hits
    finally:
        awc.uninstall()


def _dogpile_barrage(figure_report, rendezvous_coalesced: int) -> None:
    """The realistic 16-thread barrage under an invalidation storm."""
    app = build_rubis(RubisDataset(n_users=50, n_items=60))
    awc = AutoWebCache()
    awc.install(app.servlet_classes)
    # The in-memory servlet is fast enough to finish inside one GIL
    # slice, which would serialise the "concurrent" misses and hide the
    # dogpile.  A tight switch interval forces real preemption -- the
    # adversarial schedule a loaded production interpreter exhibits.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        hot_uri, hot_params = "/rubis/view_item", {"item": "1"}
        stop = threading.Event()
        writer_errors: list[str] = []

        def invalidator() -> None:
            """Keep re-invalidating the hot page: each write restarts
            the stampede the flight must absorb."""
            bid = 1000.0
            while not stop.is_set():
                bid += 1.0
                response = app.container.post(
                    "/rubis/store_bid",
                    {"item": "1", "user": "2", "bid": str(bid)},
                )
                if response.status != 200:
                    writer_errors.append(f"bid -> {response.status}")
                time.sleep(0.001)

        writer = threading.Thread(target=invalidator, daemon=True)
        writer.start()
        driver = ThreadedLoadDriver(
            app.container,
            hot_key_factory(hot_uri, hot_params),
            n_threads=N_THREADS,
            iterations=50,
        )
        result = driver.run(timeout=120.0)
        stop.set()
        writer.join(timeout=10)

        assert result.errors == []
        assert writer_errors == []
        assert result.server_errors == 0
        assert result.requests == N_THREADS * 50
        stats = awc.stats
        # Coalescing + caching means every request was a hit, a
        # coalesced serve, or one of the (bounded) real computations.
        # The how-much-coalescing question is answered by the
        # deterministic rendezvous phase, not this schedule-dependent
        # barrage.
        computed = stats.inserts + stats.stale_inserts
        assert computed + stats.hits + stats.coalesced_hits >= result.requests
        assert_cache_accounting_exact(awc)
        # The committed table holds only what this test asserts; the
        # schedule-dependent counts go to the git-ignored ``.run`` file.
        figure_report(
            "concurrency_stress_dogpile",
            "\n".join(
                [
                    "Hot-key dogpile: deterministic rendezvous, then 16 "
                    "threads x 50 reqs on /rubis/view_item?item=1",
                    "with a background writer invalidating via store_bid",
                    f"  rendezvous coalesced  {rendezvous_coalesced}/"
                    f"{N_THREADS - 1} (1 compute for {N_THREADS} requests)",
                    f"  requests          {result.requests}",
                    f"  errors            {len(result.errors)} "
                    f"(server 5xx: {result.server_errors})",
                    "  accounting        exact (bytes + dependency table)",
                ]
            ),
        )
        figure_report(
            "concurrency_stress_dogpile.run",
            "\n".join(
                [
                    "Hot-key dogpile barrage: this run's schedule-dependent counts",
                    f"  throughput        {result.throughput_rps:.0f} req/s",
                    f"  mean latency      {result.mean_latency_ms:.2f} ms",
                    f"  p95 latency       {result.percentile_ms(95):.2f} ms",
                    f"  hits              {stats.hits}",
                    f"  coalesced misses  {stats.coalesced_hits}",
                    f"  servlet computes  {stats.inserts + stats.stale_inserts}",
                    f"  stale inserts     {stats.stale_inserts}",
                    f"  invalidations     {stats.invalidated_pages}",
                ]
            ),
        )
    finally:
        sys.setswitchinterval(old_interval)
        awc.uninstall()


@pytest.mark.concurrency
def test_mixed_read_write_zero_consistency_violations(figure_report):
    app = build_rubis(RubisDataset(n_users=50, n_items=60))
    awc = AutoWebCache()
    awc.install(app.servlet_classes)
    try:
        n_writers = 4
        n_readers = N_THREADS - n_writers
        hot_items = list(range(1, n_writers + 1))
        # Freshness floor: bids *committed* (write request completed)
        # per item.  One writer per item keeps the app's own
        # read-modify-write on nb_of_bids single-writer, so the floor
        # is exact.
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
                    response = app.container.post(
                        "/rubis/store_bid",
                        {
                            "item": str(item),
                            "user": str(item + 10),
                            "bid": str(2000.0 + i),
                        },
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
                    response = app.container.handle(
                        HttpRequest("GET", "/rubis/view_item", {"item": str(item)})
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
        assert_cache_accounting_exact(awc)
        stats = awc.stats
        total_requests = (
            n_writers * bids_per_writer + n_readers * reads_per_reader
        )
        figure_report(
            "concurrency_stress_mixed",
            "\n".join(
                [
                    "Mixed read/write: 12 readers + 4 writers (16 threads), "
                    "RUBiS view_item/store_bid",
                    f"  requests          {total_requests}"
                    f" ({n_writers * bids_per_writer} writes)",
                    f"  consistency violations  {len(violations)}",
                    f"  errors            {len(errors)}",
                    "  accounting        exact (bytes + dependency table)",
                ]
            ),
        )
        figure_report(
            "concurrency_stress_mixed.run",
            "\n".join(
                [
                    "Mixed read/write: this run's schedule-dependent counts",
                    f"  wall time         {wall:.2f} s",
                    f"  hits              {stats.hits}",
                    f"  coalesced misses  {stats.coalesced_hits}",
                    f"  invalidations     {stats.invalidated_pages}",
                    f"  stale inserts     {stats.stale_inserts}",
                ]
            ),
        )
    finally:
        awc.uninstall()
