"""Interleaved in-process A/B of two trees on one bench workload (`make ab`).

Separate processes swing by tens of percent on a shared host; one
process that alternates short segments between two copies of the
program does not.  This loads two source trees side by side as renamed
packages -- ``repro_base`` from ``git archive <rev>`` and
``repro_work`` from the working tree -- each with its own copy of
``bench/workloads.py`` and ``benchmarks/profile_requests.py`` (copied
into a temporary directory with their imports renamed; ``bench/``
itself is not touched), builds each side's application and facade,
replays the workload's warm-up on both, and then replays the same
closed-loop request list in segments of N requests, base and work in
turn, flipping which goes first every segment.  Each request is timed
with ``time.thread_time`` (this thread's CPU time: what another
process does on the host does not count).

Printed per request class (fast hit, slow GET, write): microseconds per
request on each side, the ratio work / base, and in how many segments
the work side was faster; then the same for the whole mix, and the
microseconds per write spent in ``process_write_request``.

``--unwoven`` compares the working tree woven against its unwoven,
cache-less twin (a second copy of the same tree) in the same way: the
per-class tax the middleware levies, with no cross-process noise.

    python benchmarks/ab_interleaved.py --workload rubis_bidding --base HEAD
    python benchmarks/ab_interleaved.py --workload rubis_bidding --unwoven
"""

from __future__ import annotations

import argparse
import gc
import importlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The request classes, as ``profile_requests.request_class`` names them.
CLASSES = ("fast hit", "slow GET", "write")

_IMPORT = re.compile(r"\b(from|import) repro\b")
_DOTTED = re.compile(r"(?<![\w.])repro\.(?=[a-z_])")


def _renamed(text: str, package: str) -> str:
    """``text`` with every import of ``repro`` (and every dotted
    ``repro.`` name, as in a string handed to ``import_module``) naming
    ``package`` instead, and ``bench.workloads`` naming the copy."""
    text = text.replace("from bench.workloads import", f"from {package}._ab_workloads import")
    text = _IMPORT.sub(lambda match: f"{match.group(1)} {package}", text)
    return _DOTTED.sub(f"{package}.", text)


def _copy_tree(source: Path, target: Path, package: str) -> None:
    """``source`` (a checkout's root) as package ``package`` under
    ``target``, with the two harness modules the replay needs."""
    shutil.copytree(source / "src" / "repro", target / package)
    for path in (target / package).rglob("*.py"):
        path.write_text(_renamed(path.read_text(), package))
    for module, name in (
        (source / "bench" / "workloads.py", "_ab_workloads.py"),
        (source / "benchmarks" / "profile_requests.py", "_ab_profile.py"),
    ):
        (target / package / name).write_text(_renamed(module.read_text(), package))


def _archive(rev: str, target: Path) -> Path:
    """``git archive rev`` of this repository, unpacked under ``target``."""
    target.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


class Side:
    """One copy of the program serving one copy of the workload."""

    def __init__(self, package: str, workload_name: str, seed: int, woven: bool) -> None:
        workloads = importlib.import_module(f"{package}._ab_workloads")
        self.profile = importlib.import_module(f"{package}._ab_profile")
        server_module = importlib.import_module(f"{package}.web.asyncserver")
        self.name = package
        workload = workloads.WORKLOADS[workload_name]
        app = workloads.build_app(workload)
        self.router = None
        if woven:
            awc = workloads.build_facade(workload)
            awc.install(app.servlet_classes)
            self.server = server_module.AsyncCachedServer(app.container, cache=awc.cache)
            self.router = awc.router
        else:
            self.server = server_module.AsyncCachedServer(app.container)
        self.carts: dict[int, str] = {}
        self.write_s = 0.0
        if self.router is not None:
            original = self.router.process_write_request

            def timed(*args, **kwargs):
                started = time.thread_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.write_s += time.thread_time() - started

            self.router.process_write_request = timed
        warmup = workloads.generate(workload, seed, "warmup", workload.warmup)
        self.replay(warmup)
        self.write_s = 0.0
        self.requests = workloads.generate(workload, seed, "closed", workload.closed)

    def replay(self, requests) -> list[tuple[str, float]]:
        """``(path, seconds)`` per request, timed with ``thread_time``."""
        profile = self.profile
        transport = profile.RecordingTransport()
        connection = profile._HttpConnection(self.server)
        connection.connection_made(transport)
        stats, carts = self.server.stats, self.carts
        timings = []
        for request in requests:
            wire = request.wire_for(carts)
            fast_before = stats.fast_hits
            started = time.thread_time()
            connection.data_received(wire)
            elapsed = time.thread_time() - started
            path = profile.SLOW if stats.fast_hits == fast_before else profile.MEMO_HIT
            timings.append((profile.request_class(request, path), elapsed))
            request.observe(transport.payload.partition(b"\r\n\r\n")[2], carts)
        connection.connection_lost(None)
        return timings


def _summary(label: str, base: list[float], work: list[float], won: int, segments: int) -> str:
    if not base or not work:
        return f"  {label:9s}  (no requests)"
    base_us = sum(base) / len(base) * 1e6
    work_us = sum(work) / len(work) * 1e6
    return (
        f"  {label:9s} {len(work):6d}  {base_us:9.1f}  {work_us:9.1f}"
        f"  {work_us / base_us:6.3f}  {won:3d}/{segments}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="rubis_bidding")
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--unwoven", action="store_true", help="work tree woven vs unwoven")
    parser.add_argument("-n", type=int, default=500, help="requests per segment")
    parser.add_argument("--segments", type=int, default=12, help="at most this many")
    parser.add_argument("--seed", type=int, default=57)
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        if args.unwoven:
            labels = ("unwoven", "woven")
            _copy_tree(ROOT, workdir, "repro_plain")
            _copy_tree(ROOT, workdir, "repro_work")
        else:
            labels = (args.base, "work")
            _copy_tree(_archive(args.base, workdir / "base-tree"), workdir, "repro_base")
            _copy_tree(ROOT, workdir, "repro_work")
        sys.path.insert(0, str(workdir))
        if args.unwoven:
            base = Side("repro_plain", args.workload, args.seed, woven=False)
        else:
            base = Side("repro_base", args.workload, args.seed, woven=True)
        work = Side("repro_work", args.workload, args.seed, woven=True)
        # What the two set-ups built is old on one side and young on the
        # other: move it all out of the collector's generations, so a
        # collection during a segment scans only what that segment made.
        gc.collect()
        gc.freeze()
        # As many segments as the closed list holds, up to --segments.
        n = args.n
        segments = min(args.segments, len(work.requests) // n)
        if segments < 2:
            parser.error(f"the closed list has {len(work.requests)} requests: -n is too large")
        # Each request's class is the one the work side served it as
        # (an unwoven twin serves every request the slow way), so the
        # two sides are compared request by request.
        kinds: list[str] = []
        times: dict[Side, list[float]] = {base: [], work: []}
        per_segment = []
        for segment in range(segments):
            order = (base, work) if segment % 2 == 0 else (work, base)
            timed = {}
            for side in order:
                gc.collect()
                timed[side] = side.replay(side.requests[segment * n : (segment + 1) * n])
            labels_now = [kind for kind, _s in timed[work]]
            kinds.extend(labels_now)
            sums = {}
            for side in (base, work):
                seconds = [s for _kind, s in timed[side]]
                times[side].extend(seconds)
                sums[side] = {
                    kind: sum(s for k, s in zip(labels_now, seconds) if k == kind)
                    for kind in CLASSES
                }
                sums[side]["mix"] = sum(seconds)
            per_segment.append(sums)
        print(
            f"{args.workload} seed {args.seed}: {segments} segments of {n} requests,"
            f" order flipped every segment, time.thread_time per request"
        )
        print(f"  {'class':9s} {'reqs':>6s}  {labels[0][:9]:>9s}  {labels[1][:9]:>9s}"
              f"  {'ratio':>6s}  {labels[1]} faster in")
        for kind in (*CLASSES, "mix"):
            base_s = [s for k, s in zip(kinds, times[base]) if kind in (k, "mix")]
            work_s = [s for k, s in zip(kinds, times[work]) if kind in (k, "mix")]
            won = sum(sums[work][kind] < sums[base][kind] for sums in per_segment)
            print(_summary(kind, base_s, work_s, won, segments))
        writes = kinds.count("write")
        if writes:
            sides = [side for side in (base, work) if side.router is not None]
            line = ", ".join(
                f"{labels[(base, work).index(side)]} {side.write_s / writes * 1e6:.1f}"
                for side in sides
            )
            print(f"  process_write_request us per write: {line}")
            if len(sides) == 2:
                print(f"    ratio {work.write_s / base.write_s:.3f}")
        for side in (base, work):
            side.server.shutdown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
