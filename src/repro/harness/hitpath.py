"""Hit-path throughput comparison: threaded baseline vs asyncio tier.

One woven RUBiS application, one warmed cache, two serving tiers in
sequence: the ``ThreadingMixIn`` wsgiref server (the paper's
deployment shape, every hit paying a thread handoff) and the
event-loop tier (``repro.web.asyncserver``), whose fast path serves
hits from precomputed wire buffers without re-entering the renderer.
The same :class:`~repro.harness.loadgen.AsyncLoadDriver` drives both
over real sockets, so the measured difference is the serving tier, not
the client.

``make bench-hitpath`` runs this through
``benchmarks/test_hitpath_throughput.py`` and records the result in
``benchmarks/results/hitpath_throughput.txt``; the CLI front-end is
``python -m repro hitpath``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.loadgen import AsyncLoadDriver, LoadResult
from repro.harness.profiles import EXTENDED


@dataclass
class HitpathComparison:
    """Both runs plus the serving-tier accounting that proves what ran."""

    threaded: LoadResult
    asyncio_tier: LoadResult
    #: Responses the async tier served from a pinned wire buffer.
    fast_hits: int
    #: Requests the async tier rendered through the container pipeline.
    slow_requests: int
    n_connections: int
    iterations: int
    n_pages: int

    @property
    def speedup(self) -> float:
        if self.threaded.throughput_rps <= 0:
            return 0.0
        return self.asyncio_tier.throughput_rps / self.threaded.throughput_rps


def run_hitpath_comparison(
    n_connections: int = 8,
    iterations: int = 200,
    n_pages: int = 4,
) -> HitpathComparison:
    """Drive both serving tiers over one warmed woven RUBiS app."""
    from repro.apps.rubis.app import build_rubis
    from repro.cache.autowebcache import AutoWebCache
    from repro.web.asyncserver import start_async_server
    from repro.web.wsgi import start_threaded_server

    app = build_rubis()
    awc = AutoWebCache(**EXTENDED)
    awc.install(app.container.servlet_classes)
    paths = [f"/rubis/view_item?item={i + 1}" for i in range(n_pages)]
    try:
        # Warm every hot page so both runs measure pure hit serving.
        for i in range(n_pages):
            response = app.container.get(
                "/rubis/view_item", {"item": str(i + 1)}
            )
            if response.status != 200:
                raise RuntimeError(
                    f"warmup for item {i + 1} returned {response.status}"
                )

        with start_threaded_server(app.container) as handle:
            threaded = AsyncLoadDriver(
                "127.0.0.1",
                handle.port,
                paths,
                n_connections=n_connections,
                iterations=iterations,
            ).run()

        with start_async_server(app.container, cache=awc.cache) as server:
            asyncio_tier = AsyncLoadDriver(
                "127.0.0.1",
                server.port,
                paths,
                n_connections=n_connections,
                iterations=iterations,
            ).run()
            stats = server.stats.snapshot()
    finally:
        awc.uninstall()
    return HitpathComparison(
        threaded=threaded,
        asyncio_tier=asyncio_tier,
        fast_hits=stats["fast_hits"],
        slow_requests=stats["slow_requests"],
        n_connections=n_connections,
        iterations=iterations,
        n_pages=n_pages,
    )


def render_hitpath_report(comparison: HitpathComparison) -> str:
    """The ``hitpath_throughput.txt`` text."""

    def line(name: str, result: LoadResult) -> str:
        latency = result.latency_summary()
        return (
            f"{name:<34}{result.throughput_rps:>10.1f} hits/s"
            f"   p50 {latency['p50']:.3f} ms"
            f"   p95 {latency['p95']:.3f} ms"
            f"   p99 {latency['p99']:.3f} ms"
        )

    total = comparison.asyncio_tier.requests
    lines = [
        "Hit-path throughput: threaded baseline vs asyncio fast path",
        "===========================================================",
        "",
        (
            f"workload: {comparison.n_connections} connections x "
            f"{comparison.iterations} GETs over {comparison.n_pages} warmed "
            "RUBiS item pages (100% cache hits)"
        ),
        "",
        line("threaded (ThreadingMixIn wsgiref)", comparison.threaded),
        line("asyncio (precomputed wire buffers)", comparison.asyncio_tier),
        "",
        (
            f"speedup: {comparison.speedup:.1f}x single-node hits/sec"
            f"   (fast-path serves: {comparison.fast_hits}/{total},"
            f" slow-path renders: {comparison.slow_requests})"
        ),
    ]
    return "\n".join(lines)
