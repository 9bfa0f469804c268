"""In-process profile of one bench workload's request list (`make profile`).

Builds the app and facade through ``bench.workloads`` and replays the
wire bytes of warm-up + N closed-loop requests through the serving
tier's own protocol object (``_HttpConnection.data_received`` with a
recording transport: parse -> ``fast_check`` -> render -> serialize, no
sockets, no loop) un-profiled -- wall time, the fast/slow split (fast
hits found through the server's head memo apart from those whose probe
the general parser derived), SELECT share, the five most expensive
SELECT templates (calls, us per call, rows examined and returned per
call) and how often the pin-first plan rule fired -- then the same N
through an *unwoven twin* for the **miss tax**, then N more under
``cProfile`` --
counting ``NamedRLock`` acquisitions (``with`` rounds on the facade's
lock class) per fast hit, slow GET and write on the way; then N more
under ``tracemalloc`` for **what a resident page costs**: resident
entries, the page bytes they hold (body text or wire buffer) and the
bytes the pass left allocated per entry it added; then N more under
``sys.setprofile`` for the **call ledger** (:func:`call_ledger`: exact
calls into ``cache/``, ``cluster/``, ``aop/`` and ``sql/`` and lock
rounds, per fast hit, slow GET and write); last, the number of
heads the memo holds and, on a ring, how many routes the router's
placement memo holds and how many it had to compute.  On a workload
with writes it also prints the write path per write request: us in
``process_write_request`` (the un-profiled pass), lock rounds taken
inside it (the cProfile pass), every node's ``Cache.apply_writes`` as a
share of replay time, the pair cells the analysis cache filled against
the pair analyses counted (summed over the nodes, so equal to a one-node
ring's when each write is analysed once per ring), and the instances
the doom walks visited, the row witness and the partner probes excused
and the intersection test judged.  A candidate finder, not a gate:
confirm with the traced round of ``bench/run.py``.

The miss tax is what the middleware costs when it cannot answer from
the cache: the requests the woven run answered on its slow path,
replayed through the same application with nothing woven and no cache
(a child process -- weaving patches classes, so the twin cannot share
this interpreter).  It prints woven us / unwoven us / ratio per slow
request, and for the whole mix (fast hits included on the woven side:
above 1.0 the cache costs more CPU than it saves on this mix).  The
wall-clock counterpart of Figure 14's forced-miss probe, which reads
"no overhead" in virtual time (EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import multiprocessing
import pstats
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.workloads import WORKLOADS, build_app, build_facade, generate  # noqa: E402
from repro.cache.api import Cache  # noqa: E402
from repro.cache.invalidation import Invalidator  # noqa: E402
from repro.db.engine import Database  # noqa: E402
from repro.db.executor import PIN_FIRST  # noqa: E402
from repro.locks import NamedRLock  # noqa: E402
from repro.sql import ast_nodes as ast  # noqa: E402
from repro.web.asyncserver import AsyncCachedServer, _HttpConnection  # noqa: E402


class RecordingTransport:
    """What the connection writes to: keeps the latest response."""

    payload = b""

    def write(self, payload: bytes) -> None:
        self.payload = payload

    def is_closing(self) -> bool:
        return False


#: How a request was answered: from a pinned buffer found through the
#: server's head memo, or through a probe the general parser derived,
#: or on the slow path.
MEMO_HIT, PARSED_PROBE, SLOW = "memo hit", "parsed probe", "slow"


def replay(server, requests, carts, rounds=(0,)) -> list[tuple[str, float, int]]:
    """``(path, seconds, lock rounds)`` per request, ``path`` one of
    :data:`MEMO_HIT`, :data:`PARSED_PROBE` and :data:`SLOW`;
    ``rounds[0]`` is a running count of ``NamedRLock`` acquisitions
    (:func:`count_lock_rounds`), read before and after each request."""
    transport = RecordingTransport()
    connection = _HttpConnection(server)
    connection.connection_made(transport)
    timings = []
    for request in requests:
        wire = request.wire_for(carts)
        remembered = wire[: wire.find(b"\r\n\r\n")] in server.head_memo
        fast_before, rounds_before = server.stats.fast_hits, rounds[0]
        started = time.perf_counter()
        connection.data_received(wire)
        elapsed = time.perf_counter() - started
        if server.stats.fast_hits == fast_before:
            path = SLOW
        else:
            path = MEMO_HIT if remembered else PARSED_PROBE
        timings.append((path, elapsed, rounds[0] - rounds_before))
        request.observe(transport.payload.partition(b"\r\n\r\n")[2], carts)
    connection.connection_lost(None)
    return timings


def unwoven_twin(workload_name: str, seed: int, n: int) -> list[float]:
    """Seconds per request of the same list with no middleware at all.

    Runs in a spawned child: same application, same warm-up, same
    requests in the same order (so the database goes through the same
    states), nothing woven, no cache behind the server.
    """
    workload = WORKLOADS[workload_name]
    server = AsyncCachedServer(build_app(workload).container)  # never started
    carts: dict[int, str] = {}
    replay(server, generate(workload, seed, "warmup", workload.warmup), carts)
    timings = replay(server, generate(workload, seed, "closed", 2 * n)[:n], carts)
    server.shutdown()
    return [seconds for _path, seconds, _rounds in timings]


@contextlib.contextmanager
def count_lock_rounds():
    """Count every ``NamedRLock`` acquisition (reentrant ones included)
    into the yielded one-element list while the block runs.

    Every lock round in ``src/`` is a ``with`` statement, so this wraps
    ``__enter__`` on the class the facade's lock actually is (the C lock,
    or its order-checked subclass under ``REPRO_LOCKWATCH=1``)."""
    lock_class = type(NamedRLock("cache-facade"))
    rounds, enter = [0], lock_class.__enter__

    def counted(self):
        rounds[0] += 1
        return enter(self)

    with mock.patch.object(lock_class, "__enter__", counted):
        yield rounds


#: The middleware packages the call ledger counts calls into.
MIDDLEWARE = ("cache", "cluster", "aop", "sql")
#: Request classes of the call ledger and the lock-round counts.
FAST_HIT, SLOW_GET, WRITE = "fast hit", "slow GET", "write"


def request_class(request, path: str) -> str:
    if path != SLOW:
        return FAST_HIT
    return WRITE if request.method == "POST" else SLOW_GET


def _package(filename: str) -> str | None:
    """The middleware package a code object's file belongs to, if any."""
    parts = Path(filename).parts
    if len(parts) > 2 and parts[-3] == "repro" and parts[-2] in MIDDLEWARE:
        return parts[-2]
    return None


def call_ledger(server, requests, carts) -> dict[str, dict[str, float]]:
    """The exact column: per request class, the mean calls into each
    middleware package and the mean lock rounds, over ``requests``.

    Calls are counted with ``sys.setprofile``: every ``call`` event
    whose code lives in ``src/repro/<package>/``, generator resumes
    included.  Code objects named ``<...>`` (comprehensions, generator
    expressions, lambdas) are skipped: Python 3.12 inlines
    comprehensions, so counting them would make the column depend on
    the interpreter."""
    packages: dict[str, str | None] = {}
    counts: Counter[str] = Counter()

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name[0] == "<":
            return
        filename = code.co_filename
        package = packages.get(filename, "")
        if package == "":
            package = packages[filename] = _package(filename)
        if package is not None:
            counts[package] += 1

    per_request = []
    with count_lock_rounds() as rounds:
        transport = RecordingTransport()
        connection = _HttpConnection(server)
        connection.connection_made(transport)
        for request in requests:
            wire = request.wire_for(carts)
            fast_before, rounds_before = server.stats.fast_hits, rounds[0]
            counts.clear()
            sys.setprofile(profiler)
            try:
                connection.data_received(wire)
            finally:
                sys.setprofile(None)
            path = SLOW if server.stats.fast_hits == fast_before else MEMO_HIT
            per_request.append(
                (request_class(request, path), dict(counts), rounds[0] - rounds_before)
            )
            request.observe(transport.payload.partition(b"\r\n\r\n")[2], carts)
        connection.connection_lost(None)
    table: dict[str, dict[str, float]] = {}
    for label in (FAST_HIT, SLOW_GET, WRITE):
        rows = [(calls, taken) for kind, calls, taken in per_request if kind == label]
        if not rows:
            continue
        n = len(rows)
        row = {"requests": n}
        for package in MIDDLEWARE:
            row[package] = sum(calls.get(package, 0) for calls, _taken in rows) / n
        row["total"] = sum(row[package] for package in MIDDLEWARE)
        row["lock rounds"] = sum(taken for _calls, taken in rows) / n
        table[label] = row
    return table


def ledger_lines(table: dict[str, dict[str, float]], prefix: str = "") -> list[str]:
    """The ledger as aligned text rows, one per request class."""
    lines = []
    for label, row in table.items():
        calls = "  ".join(f"{row[package]:7.1f}" for package in MIDDLEWARE)
        lines.append(
            f"{prefix}{label:9s} {row['requests']:6d}  {calls}  {row['total']:7.1f}"
            f"  {row['lock rounds']:11.2f}"
        )
    return lines


LEDGER_HEADER = (
    f"{'class':9s} {'reqs':>6s}  "
    + "  ".join(f"{package:>7s}" for package in MIDDLEWARE)
    + f"  {'total':>7s}  {'lock rounds':>11s}"
)


class WriteWatch:
    """Per ``process_write_request`` call on ``router``: its seconds and
    the lock rounds taken inside it (from :attr:`rounds`, the running
    count :func:`count_lock_rounds` yields; a dummy outside it).  Set on
    the router instance, which the woven aspects call.

    :meth:`walks` also times every node's ``Cache.apply_writes`` and
    counts the instances the doom walks visit (the registrations handed
    to ``Invalidator._walk``) while its block runs."""

    def __init__(self, router) -> None:
        self.calls: list[tuple[float, int]] = []
        self.rounds = [0]
        self.apply_seconds = 0.0
        self.visited = 0
        original = router.process_write_request

        def watched(*args, **kwargs):
            rounds = self.rounds
            before, started = rounds[0], time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.calls.append((time.perf_counter() - started, rounds[0] - before))

        router.process_write_request = watched

    @contextlib.contextmanager
    def walks(self):
        apply_writes, walk = Cache.apply_writes, Invalidator._walk

        def timed_apply(cache, *args, **kwargs):
            started = time.perf_counter()
            try:
                return apply_writes(cache, *args, **kwargs)
            finally:
                self.apply_seconds += time.perf_counter() - started

        def counted_walk(invalidator, plan, instances, *args, **kwargs):
            self.visited += len(instances)
            return walk(invalidator, plan, instances, *args, **kwargs)

        with mock.patch.object(Cache, "apply_writes", timed_apply), mock.patch.object(
            Invalidator, "_walk", counted_walk
        ):
            yield

    def take(self) -> list[tuple[float, int]]:
        """The calls recorded since the last take."""
        calls, self.calls = self.calls, []
        return calls


#: The write-path counters ``make profile`` reports per write request.
WALK_COUNTERS = ("pair_analyses", "witness_skips", "partner_skips", "intersection_tests")


def walk_counters(awc) -> dict[str, int]:
    """The facade's write-path counters now, plus the pair cells the
    ring's analysis cache holds."""
    counters = {name: getattr(awc.stats, name) for name in WALK_COUNTERS}
    counters["pair_cells"] = awc.router.analysis_cache.cell_count
    return counters


def resident_entries(cache) -> list:
    """Every entry the facade's page stores hold (each node's on a ring)."""
    caches = [node.cache for node in cache.nodes()] if hasattr(cache, "nodes") else [cache]
    return [entry for store in caches for entry in store.pages.entries()]


def page_bytes(entry) -> int:
    """What an entry holds of its page: the body text until a wire
    buffer is pinned, the buffer after."""
    return sum(sys.getsizeof(part) for part in (entry._text, entry._wire) if part is not None)


def resident_cost(server, cache, requests, carts) -> None:
    """Print what a resident page costs, replaying ``requests`` under
    ``tracemalloc``: the bytes the pass left allocated, per entry it
    added, with and without the page bytes those entries hold.  Only
    when no entry left the store during the pass (no eviction, no
    doom): otherwise the freed entries blur the figure."""
    before = resident_entries(cache)
    seen = set(map(id, before))  # ``before`` keeps the ids from reuse
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        replay(server, requests, carts)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    after = resident_entries(cache)
    held = sum(map(page_bytes, after))
    print(f"resident pages: {len(after)}, holding {held / max(len(after), 1):.0f} B"
          " of page each (body text or wire buffer)")
    new = [entry for entry in after if id(entry) not in seen]
    grown = len(after) - len(before)
    if not new or grown != len(new):
        print(f"  {len(requests)} more requests under tracemalloc: {len(before) + len(new) - len(after)}"
              f" entries left the store, {len(new)} arrived: no per-entry figure")
        return
    added = sum(map(page_bytes, new))
    print(f"  {len(requests)} more requests under tracemalloc: +{grown} entries,"
          f" {retained / grown:.0f} B retained per entry added,"
          f" {(retained - added) / grown:.0f} B beyond its page bytes")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="rubis_browse_churn", choices=sorted(WORKLOADS))
    parser.add_argument("-n", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=57)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    app, awc = build_app(workload), build_facade(workload)
    awc.install(app.servlet_classes)
    server = AsyncCachedServer(app.container, cache=awc.cache)  # never started
    select_s, execute = 0.0, Database.execute_statement
    #: id(statement) -> [statement, calls, seconds, rows examined, rows returned]
    templates: dict[int, list] = {}
    rules: Counter[str] = Counter()

    def timed(self, statement, params=()):
        nonlocal select_s
        if not isinstance(statement, ast.Select):
            return execute(self, statement, params)
        started = time.perf_counter()
        result = execute(self, statement, params)
        elapsed = time.perf_counter() - started
        select_s += elapsed
        entry = templates.setdefault(id(statement), [statement, 0, 0.0, 0, 0])
        entry[1] += 1
        entry[2] += elapsed
        entry[3] += result.rows_examined
        entry[4] += len(result.rows)
        rules.update(self._executor.last_rules)
        return result

    carts: dict[int, str] = {}
    replay(server, generate(workload, args.seed, "warmup", workload.warmup), carts)
    closed = generate(workload, args.seed, "closed", 4 * args.n)
    watch = WriteWatch(awc.cache) if workload.writes else None
    counters_before = walk_counters(awc)
    Database.execute_statement = timed
    with watch.walks() if watch else contextlib.nullcontext():
        woven = replay(server, closed[: args.n], carts)
    Database.execute_statement = execute
    counters = walk_counters(awc)
    for name, before in counters_before.items():
        counters[name] -= before
    timed_writes = watch.take() if watch else []
    wall = sum(seconds for _path, seconds, _rounds in woven)
    print(f"{args.workload} seed {args.seed}: {wall / args.n * 1e6:.1f} us/request"
          f" un-profiled, execute_select share {select_s / wall:.1%}")
    for label, path in (
        ("fast path, memo hit", MEMO_HIT),
        ("fast path, parsed probe", PARSED_PROBE),
        ("slow path", SLOW),
    ):
        taken = [seconds for taken_path, seconds, _rounds in woven if taken_path == path]
        mean = sum(taken) / len(taken) * 1e6 if taken else 0.0
        print(f"  {label}: {len(taken) / args.n:.1%} of requests, {mean:.1f} us each")
    print("top SELECT templates by share of wall time (calls, us/call, rows examined"
          " / returned per call):")
    ranked = sorted(templates.values(), key=lambda entry: entry[2], reverse=True)
    for statement, calls, seconds, examined, returned in ranked[:5]:
        print(f"  {seconds / wall:5.1%} {calls:6d} {seconds / calls * 1e6:8.1f} us"
              f" {examined / calls:8.1f} / {returned / calls:6.1f}  {statement.unparse()[:90]}")
    selects = sum(entry[1] for entry in templates.values())
    print(f"rewrite rule {PIN_FIRST} fired on {rules[PIN_FIRST]} of {selects} SELECTs")

    with multiprocessing.get_context("spawn").Pool(1) as pool:
        unwoven = pool.apply(unwoven_twin, (args.workload, args.seed, args.n))
    slow = [i for i, (path, _seconds, _rounds) in enumerate(woven) if path == SLOW]
    print("miss tax (woven / unwoven twin, same requests):")
    for label, indices in (("per slow request", slow), ("whole mix", range(args.n))):
        count = max(len(indices), 1)
        woven_us = sum(woven[i][1] for i in indices) / count * 1e6
        unwoven_us = sum(unwoven[i] for i in indices) / count * 1e6
        ratio = woven_us / unwoven_us if unwoven_us else 0.0
        print(f"  {label}: {woven_us:.1f} us / {unwoven_us:.1f} us = {ratio:.2f}x")

    profiler = cProfile.Profile()
    with count_lock_rounds() as rounds:
        if watch:
            watch.rounds = rounds
        profiled = profiler.runcall(replay, server, closed[args.n : 2 * args.n], carts, rounds)
    print("NamedRLock rounds per request (the cProfile pass below):")
    classes = {FAST_HIT: [], SLOW_GET: [], WRITE: []}
    for request, (path, _seconds, taken) in zip(closed[args.n : 2 * args.n], profiled):
        classes[request_class(request, path)].append(taken)
    for label, counts in classes.items():
        mean = f"{sum(counts) / len(counts):.1f}" if counts else "n/a"
        print(f"  {label}: {mean} ({len(counts)} requests)")
    if watch:
        counted_writes = watch.take()
        if timed_writes and counted_writes:
            writes = len(timed_writes)
            us = sum(seconds for seconds, _rounds in timed_writes) / writes * 1e6
            taken = sum(rounds for _seconds, rounds in counted_writes) / len(counted_writes)
            print(f"write path, per write request ({writes} writes, the un-profiled pass):"
                  f" {us:.1f} us in process_write_request, {taken:.1f} lock rounds"
                  " (the cProfile pass)")
            print(f"  node apply_writes: {watch.apply_seconds / wall:.1%} of replay time")
            print(f"  pair cells filled: {counters['pair_cells']} for"
                  f" {counters['pair_analyses']} pair analyses counted"
                  f" ({counters['pair_analyses'] / writes:.2f} per write)")
            print(f"  instances per write: {watch.visited / writes:.1f} visited,"
                  f" {counters['witness_skips'] / writes:.1f} witness-excused,"
                  f" {counters['partner_skips'] / writes:.1f} partner-excused,"
                  f" {counters['intersection_tests'] / writes:.1f} intersection-tested")
        else:
            print("write path: no write request in the pass")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    resident_cost(server, awc.cache, closed[2 * args.n : 3 * args.n], carts)
    print("middleware calls per request, exact (sys.setprofile; N more requests):")
    print(f"  {LEDGER_HEADER}")
    for line in ledger_lines(call_ledger(server, closed[3 * args.n :], carts), "  "):
        print(line)
    print(f"head memo: {len(server.head_memo)} heads")
    if workload.nodes:
        router = awc.cache
        print(f"route memo: {router.route_memo_size} routes,"
              f" {router.routes_computed} computed")
    server.shutdown()


if __name__ == "__main__":
    main()
