"""The repository benchmark.

    python bench/run.py                          every workload, full report
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                 one workload; the last line of
                                                 stdout is the driver's JSON
    python bench/run.py --verify-only            only the correctness check
    python bench/run.py --quick                  small smoke run (< 30 s)
    python bench/run.py --compare A.json B.json  gate B against A

A *round* is: spawn a fresh child -> warm-up (untimed) -> closed-loop
phase -> paced phase -> read the child's counters -> stop the child.
``--seconds`` is the measuring time per workload; it is split evenly
over ``--rounds`` rounds and, within a round, between the two phases.
Rounds are interleaved round-robin across workloads so a noisy minute on
a shared host costs each workload at most a round.  With ``--trace 1``
the last round of each workload runs under the span recorder; end-to-end
metrics never come from it.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")

from bench import metrics  # noqa: E402
from bench.client import Child, run_phase  # noqa: E402
from bench.verify import verify  # noqa: E402
from bench.workloads import (  # noqa: E402
    VERIFY_REQUESTS,
    WORKLOADS,
    Request,
    Workload,
    generate,
)

RESULTS = Path(__file__).resolve().parent / "results"


def pin_cpus() -> tuple[int | None, int | None]:
    """(parent cpu, child cpu); (None, None) when pinning is impossible."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return None, None
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError):
        return None, None
    return cpus[0], cpus[-1]


def host_fingerprint(parent_cpu, child_cpu) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "affinity": {"parent": parent_cpu, "child": child_cpu},
    }


class Plan:
    """One workload's request lists and phase lengths."""

    def __init__(self, workload: Workload, seed: int, phase_seconds: float, scale: float):
        self.workload = workload
        self.phase_seconds = phase_seconds
        self.warmup = generate(workload, seed, "warmup", int(workload.warmup * scale))
        self.closed = generate(workload, seed, "closed", workload.closed)
        self.paced = generate(
            workload, seed, "paced", int(workload.paced_rps * phase_seconds)
        )


def run_round(plan: Plan, child_cpu, trace_path=None) -> dict:
    """One round -> its metric values and its attempted/failed counts."""
    workload = plan.workload
    child = Child(workload.name, child_cpu, trace_path)
    try:
        warm = run_phase(child.port, plan.warmup)
        if trace_path is not None:
            child.command("trace_on")
        before = child.command("snapshot")
        closed = run_phase(child.port, plan.closed, seconds=plan.phase_seconds)
        after_closed = child.command("snapshot")
        paced = run_phase(child.port, plan.paced, rate=workload.paced_rps)
    finally:
        # run_phase closed its sockets; the child ends on its own.
        final = child.stop()
    values = metrics.round_values(child, closed, paced, before, after_closed, final)
    if trace_path is not None:
        values.update(
            metrics.traced_values(
                metrics.load_spans(trace_path), before, final, workload
            )
        )
    phases = (warm, closed, paced)
    return {
        "values": values,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "failures": [f for p in phases for f in p.failures][:10],
    }


def run(args) -> dict:
    parent_cpu, child_cpu = pin_cpus()
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = 0.1 if args.quick else 1.0
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "trace": args.trace,
        "host": host_fingerprint(parent_cpu, child_cpu),
        "workloads": {},
    }
    problems = {}
    for name in names:
        problems[name] = verify(
            WORKLOADS[name], args.seed, child_cpu, int(VERIFY_REQUESTS * scale)
        )
        print(f"verify {name}: {len(problems[name])} mismatches", file=sys.stderr)
    rounds = {name: [] for name in names}
    traced = {}
    if not args.verify_only:
        RESULTS.mkdir(exist_ok=True)
        phase_seconds = args.seconds / args.rounds / 2.0
        plans = {
            name: Plan(WORKLOADS[name], args.seed, phase_seconds, scale)
            for name in names
        }
        if args.inject_unroutable:
            for plan in plans.values():
                plan.closed.insert(0, Request("GET", "/no/such/servlet", {}, 0, False))
        # The request lists are ~100k long-lived objects; left in the
        # collector's sight, each full collection stalls both sender
        # threads for ~30 ms (it was the hit path's whole p99).
        gc.freeze()
        # Round-robin across workloads: a noisy minute on the host costs
        # each workload at most a round.
        for index in range(args.rounds):
            trace_round = bool(args.trace) and index == args.rounds - 1
            for name in names:
                path = RESULTS / f"trace-{name}.jsonl" if trace_round else None
                result = run_round(plans[name], child_cpu, path)
                if trace_round:
                    traced[name] = result
                else:
                    rounds[name].append(result)
    for name in names:
        done = rounds[name] + ([traced[name]] if name in traced else [])
        untraced = [r["values"] for r in rounds[name]]
        trace_values = traced[name]["values"] if name in traced else None
        if trace_values:
            trace_values["trace.overhead_ratio"] = metrics.ratio(
                trace_values["throughput_rps"],
                statistics.median(v["throughput_rps"] for v in untraced),
            )
        report["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "correct": not problems[name],
            "mismatches": problems[name][:10],
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "failures": [f for r in done for f in r["failures"]][:10],
            "metrics": metrics.summarise(WORKLOADS[name], untraced, trace_values),
        }
    return report


def print_report(report: dict) -> None:
    for name, result in report["workloads"].items():
        print(f"\n== {name}: correct={result['correct']}"
              f" attempted={result['attempted']} failed={result['failed']}")
        for failure in result["mismatches"] + result["failures"]:
            print(f"   ! {failure}")
        for metric, entry in result["metrics"].items():
            bound = "" if entry["bound"] is None else f"  bound {entry['bound']:.0%}"
            spread = "  ".join(f"{v:.4g}" for v in entry["rounds"])
            print(f"   {metric:<38}{entry['value']:>12.4f} {entry['unit']:<6}"
                  f"{bound}   [{spread}]")


def driver_line(report: dict, name: str, trace: bool) -> str:
    """The one JSON object the driver reads, for a single workload:
    every metric ``BENCHMARK.json`` lists for this ``--trace`` value."""
    result = report["workloads"][name]
    out = {}
    for listed in load_benchmark_json()["per_layer" if trace else "end_to_end"]:
        entry = result["metrics"].get(listed["name"])
        # A metric the workload does not have (no writes, no cluster)
        # reads 0 here; the report file simply omits it.
        out[listed["name"]] = {
            "value": entry["value"] if entry else 0.0,
            "unit": listed["unit"],
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": out,
        }
    )


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        rows, regressed = metrics.compare(json.load(a), json.load(b))
    print(f"{'workload':<22}{'metric':<28}{'A':>11}{'B':>11}{'worse by':>10}"
          f"{'bound':>7}{'spread':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<22}{row['metric']:<28}{row['a']:>11.4f}"
              f"{row['b']:>11.4f}{row['worse_by']:>+10.1%}{row['bound']:>7.0%}"
              f"{row['round_spread']:>8.1%}  {row['verdict']}")
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload, split over the rounds")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: the last round of each workload is traced")
    parser.add_argument("--out", help="report path (default bench/results/run-<seed>.json)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--verify-only", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--inject-unroutable", action="store_true",
                        help="test hook: prepend one request no servlet answers")
    args = parser.parse_args()
    if args.compare:
        return compare_files(*args.compare)
    if args.quick:
        args.rounds, args.seconds = 2, 4.0
    if args.rounds < 1 + args.trace:
        parser.error("--trace 1 needs --rounds 2 or more: the last round is the traced one")
    started = time.perf_counter()
    report = run(args)
    report["wall_s"] = time.perf_counter() - started
    print_report(report)
    if not args.verify_only:
        out = Path(args.out) if args.out else RESULTS / f"run-{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1))
        print(f"\nwrote {out} after {report['wall_s']:.1f} s")
    correct = all(r["correct"] for r in report["workloads"].values())
    if args.workload and not args.verify_only:
        print(driver_line(report, args.workload, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
