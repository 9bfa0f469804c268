"""A CPU-speed thermometer for a noisy shared host.

The sandbox's vCPUs switch between speed regimes roughly 30-50 % apart
that last from a second to minutes (neighbouring VMs on the sibling
hyperthread, frequency steps), independently per vCPU.  Wall time *and*
CPU time of any fixed piece of work scale with the regime, so no amount
of best-of or median-of rounds inside one ~25 s run removes it (see
README, "Noise").

The thermometer samples the regime while the measurement runs: a daemon
thread does a tiny fixed pure-Python loop every 50 ms and records how
many nanoseconds of *thread CPU time* it took.  Thread CPU time ignores
waiting for the GIL, so the reading is the cost of fixed work on this
CPU right now.  A phase's *slowdown* is the trimmed mean reading inside
it over :data:`REFERENCE_NS`; time-based metrics are reported at
reference speed by dividing that factor out.  On the prototype the
logarithm of closed-loop throughput tracked the logarithm of the
slowdown with slope -1.0 (correlation -0.9) whenever the regimes were
the dominant noise.
"""

from __future__ import annotations

import statistics
import threading
import time

#: Iterations of the fixed loop: ~0.25 ms, 0.5 % of one CPU at 20 Hz.
BURST_ITERATIONS = 5000
PERIOD_S = 0.05
#: Thread-CPU ns one burst takes at reference speed (the prototype
#: host's median).  Only the ratio between runs matters; the constant
#: keeps reported values close to what that host really measured.
REFERENCE_NS = 250_000


def burst_ns() -> int:
    """Thread-CPU nanoseconds the fixed loop costs right now."""
    started = time.thread_time_ns()
    total = 0
    for i in range(BURST_ITERATIONS):
        total += i * i % 7
    return time.thread_time_ns() - started


class Thermometer:
    """Background sampler: ``samples`` is ``[(perf_counter_ns, burst_ns)]``.

    ``perf_counter_ns`` is CLOCK_MONOTONIC, shared by every process on
    the host, so the parent can cut the child's samples by its own
    phase boundaries.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []
        self._thread = threading.Thread(
            target=self._run, name="bench-thermometer", daemon=True
        )

    def start(self) -> "Thermometer":
        self._thread.start()
        return self

    def read(self) -> None:
        self.samples.append((time.perf_counter_ns(), burst_ns()))

    def _run(self) -> None:
        while True:
            time.sleep(PERIOD_S)
            self.read()


def slowdown(samples, start_ns: int, end_ns: int) -> float:
    """Mean reading in ``[start_ns, end_ns]`` over the reference, the top
    and bottom tenth of the readings dropped; 1.0 without a reading.

    Work takes the *sum* of its pieces' times, so the mean is the right
    average; the trim keeps one pre-empted burst from deciding it.
    """
    window = sorted(ns for t, ns in samples if start_ns <= t <= end_ns)
    if not window:
        return 1.0
    trim = len(window) // 10
    kept = window[trim : len(window) - trim]
    return statistics.fmean(kept) / REFERENCE_NS
