"""The exact call ledger of every bench workload (`make bench-calls`).

For each workload of ``bench.workloads``: build the app and facade,
replay the warm-up through the serving tier's protocol object (as
``make profile`` does), then count, over the next N closed-loop
requests, the calls into each middleware package and the lock rounds
per fast hit, slow GET and write (:func:`profile_requests.call_ledger`).
The counts are exact -- no timing -- so the table is committed
(``benchmarks/results/miss_calls.txt``) and CI diffs it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "benchmarks")]

from bench.workloads import WORKLOADS, build_app, build_facade, generate  # noqa: E402
from profile_requests import LEDGER_HEADER, call_ledger, ledger_lines, replay  # noqa: E402
from repro.web.asyncserver import AsyncCachedServer  # noqa: E402

RESULT = ROOT / "benchmarks" / "results" / "miss_calls.txt"


def workload_ledger(name: str, seed: int, n: int) -> list[str]:
    workload = WORKLOADS[name]
    app, awc = build_app(workload), build_facade(workload)
    awc.install(app.servlet_classes)
    server = AsyncCachedServer(app.container, cache=awc.cache)  # never started
    try:
        carts: dict[int, str] = {}
        replay(server, generate(workload, seed, "warmup", workload.warmup), carts)
        closed = generate(workload, seed, "closed", n)
        return ledger_lines(call_ledger(server, closed, carts), f"{name:20s} ")
    finally:
        server.shutdown()
        awc.uninstall()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=57)
    args = parser.parse_args()
    lines = [
        "Middleware calls and lock rounds per request, by request class",
        f"(exact: sys.setprofile calls into src/repro/{{cache,cluster,aop,sql}}/,"
        " code objects named <...> skipped;",
        f" {args.n} closed-loop requests after each workload's warm-up, seed {args.seed})",
        "",
        f"{'workload':20s} {LEDGER_HEADER}",
    ]
    for name in WORKLOADS:
        lines.extend(workload_ledger(name, args.seed, args.n))
    text = "\n".join(lines) + "\n"
    RESULT.write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
