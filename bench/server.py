"""The system under test, as a child process.

Builds the workload's application, weaves the cache facade with default
flags, serves it with ``start_async_server`` and answers one-line
commands on stdin with one-line JSON on stdout:

``snapshot``  every public counter plus this process's CPU seconds
``trace_on``  start recording spans (``--trace`` children only)
``stop``      dump the trace, print a final snapshot, exit

The parent closes its sockets before ``stop`` and the child just
returns from ``main``: ``AsyncCachedServer.shutdown()`` is deliberately
not on this path (see README, "Known src/ issues").
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

T_SPAWNED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.thermometer import Thermometer  # noqa: E402
from bench.workloads import WORKLOADS, build_app, build_facade  # noqa: E402


def peak_rss_kb() -> int:
    """This process's own high-water RSS.

    Not ``ru_maxrss``: Linux carries the pre-exec image's peak into it,
    so a child spawned from a 90 MB parent reports 90 MB forever.
    ``VmHWM`` belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def snapshot(app, awc, server, recorder) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    db = app.database.stats
    data = {
        "t_ns": time.perf_counter_ns(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": peak_rss_kb(),
        "server": server.stats.snapshot(),
        "db": {
            "queries": db.queries,
            "updates": db.updates,
            "rows_examined": db.rows_examined,
            "rows_returned": db.rows_returned,
        },
    }
    if hasattr(awc, "cluster_snapshot"):
        cluster = awc.cluster_snapshot()
        data["cache"] = cluster["cluster"]
        data["bus"] = {
            k: cluster["bus"][k] for k in ("published", "delivered", "pages_invalidated")
        }
        data["node_lookups"] = [n["stats"]["lookups"] for n in cluster["nodes"]]
        stores = [node.cache.pages for node in awc.router.nodes()]
    else:
        data["cache"] = awc.stats.snapshot()
        stores = [awc.cache.pages]
    data["cache"].pop("by_type", None)
    data["resident_entries"] = sum(len(pages) for pages in stores)
    data["resident_bytes"] = sum(pages.total_bytes for pages in stores)
    if recorder is not None:
        data["distinct_templates"] = len(recorder.templates)
    return data


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace", default=None, help="span dump path (JSON lines)")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workload = WORKLOADS[args.workload]
    # Set-up has no idle moment for the sampler thread, so the main
    # thread takes a reading between its stages.
    thermometer = Thermometer()
    thermometer.read()

    from repro.web.asyncserver import start_async_server

    recorder = None
    if args.trace:
        from bench import tracing

        recorder = tracing.Recorder()
    t_imported = time.perf_counter()
    thermometer.read()
    app = build_app(workload)
    t_built = time.perf_counter()
    thermometer.read()
    if recorder is not None:
        tracing.install_raw(recorder, app.servlet_classes)
    awc = build_facade(workload)
    t_weave = time.perf_counter()
    awc.install(app.servlet_classes)
    t_woven = time.perf_counter()
    if recorder is not None:
        tracing.install_woven(recorder, app.servlet_classes)
    server = start_async_server(app.container, cache=awc.cache)
    if recorder is not None:
        recorder.wrap_submit(server.executor)
    thermometer.read()

    def say(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    say(
        {
            "port": server.port,
            "t_ns": time.perf_counter_ns(),
            "import_s": t_imported - T_SPAWNED,
            "build_s": t_built - t_imported,
            "weave_s": t_woven - t_weave,
        }
    )
    thermometer.start()
    for line in sys.stdin:
        command = line.strip()
        if command == "snapshot":
            say(snapshot(app, awc, server, recorder))
        elif command == "trace_on" and recorder is not None:
            recorder.enabled = True
            say({"tracing": True})
        elif command == "stop":
            break
    if recorder is not None:
        recorder.enabled = False
        recorder.dump(args.trace)
    final = snapshot(app, awc, server, recorder)
    final["thermometer"] = thermometer.samples
    say(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
