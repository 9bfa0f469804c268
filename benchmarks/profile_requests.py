"""In-process profile of one bench workload's request list (`make profile`).

Builds the app and facade through ``bench.workloads``, replays warm-up +
N closed-loop requests through the woven container un-profiled (wall
time, SELECT share), then N more under ``cProfile``.  A candidate
finder, not a gate: confirm with the traced round of ``bench/run.py``.
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
from repro.web.http import HttpRequest  # noqa: E402


def replay(container, requests, carts) -> float:
    started = time.perf_counter()
    for request in requests:
        response = container.handle(
            HttpRequest(request.method, request.uri, request.resolved_params(carts))
        )
        request.observe(response.body.encode("utf-8"), carts)
    return time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="rubis_browse_churn", choices=sorted(WORKLOADS))
    parser.add_argument("-n", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=57)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    app, awc = build_app(workload), build_facade(workload)
    awc.install(app.servlet_classes)
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
    replay(app.container, generate(workload, args.seed, "warmup", workload.warmup), carts)
    closed = generate(workload, args.seed, "closed", 2 * args.n)
    Database.execute_statement = timed
    wall = replay(app.container, closed[: args.n], carts)
    Database.execute_statement = execute
    print(f"{args.workload} seed {args.seed}: {wall / args.n * 1e6:.1f} us/request"
          f" un-profiled, execute_select share {select_s / wall:.1%}")
    profiler = cProfile.Profile()
    profiler.runcall(replay, app.container, closed[args.n :], carts)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


if __name__ == "__main__":
    main()
