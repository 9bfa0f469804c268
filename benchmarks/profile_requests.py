"""In-process profile of one bench workload's request list (`make profile`).

Builds the app and facade through ``bench.workloads`` and replays the
wire bytes of warm-up + N closed-loop requests through the serving
tier's own protocol object (``_HttpConnection.data_received`` with a
recording transport: parse -> ``fast_check`` -> render -> serialize, no
sockets, no loop) un-profiled -- wall time, the fast/slow split, SELECT
share -- then N more under ``cProfile``.  A candidate finder, not a
gate: confirm with the traced round of ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.workloads import WORKLOADS, build_app, build_facade, generate  # noqa: E402
from repro.db.engine import Database  # noqa: E402
from repro.sql import ast_nodes as ast  # noqa: E402
from repro.web.asyncserver import AsyncCachedServer, _HttpConnection  # noqa: E402


class RecordingTransport:
    """What the connection writes to: keeps the latest response."""

    payload = b""

    def write(self, payload: bytes) -> None:
        self.payload = payload

    def is_closing(self) -> bool:
        return False


def replay(server, requests, carts) -> dict[str, list]:
    """``[requests, seconds]`` spent answering, by serving path."""
    transport = RecordingTransport()
    connection = _HttpConnection(server)
    connection.connection_made(transport)
    paths = {"fast": [0, 0.0], "slow": [0, 0.0]}
    for request in requests:
        wire = request.wire_for(carts)
        fast_before = server.stats.fast_hits
        started = time.perf_counter()
        connection.data_received(wire)
        elapsed = time.perf_counter() - started
        path = paths["fast" if server.stats.fast_hits > fast_before else "slow"]
        path[0] += 1
        path[1] += elapsed
        request.observe(transport.payload.partition(b"\r\n\r\n")[2], carts)
    connection.connection_lost(None)
    return paths


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

    def timed(self, statement, params=()):
        nonlocal select_s
        started = time.perf_counter()
        try:
            return execute(self, statement, params)
        finally:
            if isinstance(statement, ast.Select):
                select_s += time.perf_counter() - started

    carts: dict[int, str] = {}
    replay(server, generate(workload, args.seed, "warmup", workload.warmup), carts)
    closed = generate(workload, args.seed, "closed", 2 * args.n)
    Database.execute_statement = timed
    paths = replay(server, closed[: args.n], carts)
    Database.execute_statement = execute
    wall = paths["fast"][1] + paths["slow"][1]
    print(f"{args.workload} seed {args.seed}: {wall / args.n * 1e6:.1f} us/request"
          f" un-profiled, execute_select share {select_s / wall:.1%}")
    for path, (count, seconds) in paths.items():
        mean = seconds / count * 1e6 if count else 0.0
        print(f"  {path} path: {count / args.n:.1%} of requests, {mean:.1f} us each")
    profiler = cProfile.Profile()
    profiler.runcall(replay, server, closed[args.n :], carts)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    server.shutdown()


if __name__ == "__main__":
    main()
