"""Observability overhead on the hot cache-hit path.

The acceptance question for ``repro.obs``: what does weaving the
tracing/metrics aspects cost when they are *disabled*?  A diagnosis
layer you cannot afford to leave woven in production defeats its
purpose, so the subsystem's contract is that a woven-but-disabled
aspect adds (close to) nothing to the request path.

Three configurations serve the same hot ``/rubis/view_item`` cache hit:

- **baseline**  -- AutoWebCache only (the pre-observability system);
- **disabled**  -- observability woven over it, then switched off;
- **enabled**   -- observability woven and recording spans + histograms.

Each configuration is warmed, then timed as the minimum per-request
latency over several trials (min, not mean: scheduling noise only ever
adds time).  The measured overheads are written to
``benchmarks/results/obs_overhead.txt``.

The disabled bound asserted here (25%) is a loose regression tripwire
for noisy CI boxes; the measured number on an idle machine is ~3% of a
~9.5 us hit (see docs/observability.md) -- the one bypassed dispatcher
on ``Cache.check`` -- achieved by the weaver's epoch-cached dispatch
plan: a disabled aspect costs one integer comparison per call and join
points left with no active advice bypass the control-flow stack push
entirely.

``OBS_BENCH_REQUESTS`` scales the per-trial request count (CI smoke
uses a small value; the default suits an idle machine).
"""

from __future__ import annotations

import os
import time

from repro.apps.rubis.app import build_rubis
from repro.cache.autowebcache import AutoWebCache
from repro.harness.reporting import render_table
from repro.obs import Observability

#: Per-trial request count and trial count, scaled by the environment
#: so the CI smoke run stays cheap.
REQUESTS = int(os.environ.get("OBS_BENCH_REQUESTS", "3000"))
TRIALS = int(os.environ.get("OBS_BENCH_TRIALS", "7"))
WARMUP = min(300, REQUESTS)

#: Loose tripwire for the disabled path -- the measured overhead on an
#: idle box is ~3%, but shared CI machines jitter far more than that.
DISABLED_TRIPWIRE = 0.25

HOT_URI = "/rubis/view_item"
HOT_PARAMS = {"item": "1"}


def _time_hot_path(install) -> float:
    """Best-of-trials per-request seconds for one configuration.

    ``install`` receives the freshly built application and returns a
    teardown callable; building a fresh app per configuration keeps the
    cache and DB state identical across the three runs.
    """
    app = build_rubis()
    teardown = install(app)
    try:
        get = app.container.get
        for _ in range(WARMUP):
            get(HOT_URI, HOT_PARAMS)
        best = float("inf")
        for _ in range(TRIALS):
            start = time.perf_counter()
            for _ in range(REQUESTS):
                get(HOT_URI, HOT_PARAMS)
            best = min(best, (time.perf_counter() - start) / REQUESTS)
        return best
    finally:
        teardown()


def _baseline(app):
    awc = AutoWebCache()
    awc.install(app.container.servlet_classes)
    return awc.uninstall


def _woven(app, enabled: bool):
    obs = Observability()
    awc = AutoWebCache()
    awc.install(app.container.servlet_classes, extra_aspects=obs.aspects)
    obs.weave_infrastructure()
    if not enabled:
        obs.disable()

    def teardown():
        obs.unweave_infrastructure()
        awc.uninstall()

    return teardown


def _run() -> dict[str, float]:
    return {
        "baseline": _time_hot_path(_baseline),
        "obs woven, disabled": _time_hot_path(lambda app: _woven(app, False)),
        "obs woven, enabled": _time_hot_path(lambda app: _woven(app, True)),
    }


def test_obs_overhead(benchmark, figure_report):
    timings = benchmark.pedantic(_run, rounds=1, iterations=1)
    base = timings["baseline"]
    assert base > 0
    rows = []
    for name, seconds in timings.items():
        overhead = seconds / base - 1.0
        rows.append([name, f"{seconds * 1e6:.2f}", f"{overhead * 100:+.1f}%"])
    figure_report(
        "obs_overhead",
        render_table(
            f"Observability overhead on the {HOT_URI} cache hit "
            f"({REQUESTS} requests/trial, best of {TRIALS})",
            ["configuration", "us/request", "vs baseline"],
            rows,
        ),
    )
    disabled = timings["obs woven, disabled"]
    if REQUESTS >= 2000:
        # Tiny smoke runs (CI) are too noisy to bound; they still
        # exercise all three configurations and publish the table.
        assert disabled / base - 1.0 < DISABLED_TRIPWIRE, (
            f"woven-but-disabled observability costs "
            f"{(disabled / base - 1.0) * 100:.1f}% on the hit path "
            f"(tripwire {DISABLED_TRIPWIRE * 100:.0f}%)"
        )
    # Enabled instrumentation must actually do work; if it is as fast
    # as disabled, the aspects silently stopped observing.
    assert timings["obs woven, enabled"] > disabled
