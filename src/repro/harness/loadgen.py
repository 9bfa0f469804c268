"""Threaded closed-loop load driver: real threads against the container.

The simulator (`repro.sim`) models clients in virtual time on one
thread -- ideal for the paper's response-time figures, useless for
finding data races.  This driver is its concurrency counterpart: N
OS threads in a closed loop (issue, wait for completion, think, issue
again) against a live :class:`~repro.web.container.ServletContainer`,
exactly the shape of the paper's RUBiS/TPC-W client emulators driving
Tomcat's thread pool.

Each thread gets a ``request_factory(thread_index, iteration, rng)``
callback so workloads can script anything from a single hot key (the
dogpile test) to a mixed read/write barrage.  Failures are collected,
never swallowed: the result object reports every exception and every
non-2xx/404 response so stress tests can assert *zero*.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.web.http import HttpRequest, HttpResponse

RequestFactory = Callable[[int, int, random.Random], HttpRequest]


class RequestTarget(Protocol):
    """Anything the driver can throw requests at.

    A plain :class:`~repro.web.container.ServletContainer` qualifies,
    and so does :class:`ClusterTarget` -- the driver only dispatches
    and validates, it does not care how many cache nodes sit behind
    ``handle``.
    """

    def handle(self, request: HttpRequest) -> HttpResponse: ...


@dataclass
class ClusterTarget:
    """A woven N-node cluster as a load-driver target.

    Bundles the servlet container with its installed
    :class:`~repro.cache.autowebcache.AutoWebCache` (``n_nodes > 1``)
    so stress tests can drive the cluster and then audit per-node
    accounting from one handle.
    """

    container: "object"
    awc: "object"

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self.container.handle(request)

    def snapshot(self) -> dict:
        """The cluster-wide + per-node accounting snapshot."""
        return self.awc.cluster_snapshot()


@dataclass
class LoadResult:
    """Outcome of one threaded closed-loop run."""

    threads: int
    requests: int = 0
    errors: list[str] = field(default_factory=list)
    #: Responses whose status was >= 500 (the container converts
    #: servlet bugs into 500 pages rather than raising).
    server_errors: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors and not self.server_errors

    @property
    def throughput_rps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    def percentile_ms(self, p: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[index]

    def latency_summary(self) -> dict[str, float]:
        """Mean plus the standard tail percentiles, one sorted pass."""
        if not self.latencies_ms:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self.latencies_ms)

        def at(p: float) -> float:
            return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]

        return {
            "mean": sum(ordered) / len(ordered),
            "p50": at(50),
            "p95": at(95),
            "p99": at(99),
        }


class ThreadedLoadDriver:
    """Closed-loop load from ``n_threads`` real threads.

    Every thread performs ``iterations`` rounds: build a request via
    ``request_factory``, dispatch it synchronously through the
    target, validate, repeat.  A barrier aligns thread start so the
    first iteration genuinely contends (the dogpile moment); an
    optional ``think_time`` sleeps between rounds.

    The target is anything with ``handle(request)``: a bare
    :class:`~repro.web.container.ServletContainer` or a
    :class:`ClusterTarget` wrapping an N-node woven cluster.
    """

    def __init__(
        self,
        container: RequestTarget,
        request_factory: RequestFactory,
        n_threads: int = 16,
        iterations: int = 50,
        think_time: float = 0.0,
        seed: int = 7,
    ) -> None:
        self.container = container
        self.request_factory = request_factory
        self.n_threads = n_threads
        self.iterations = iterations
        self.think_time = think_time
        self.seed = seed

    def run(self, timeout: float = 60.0) -> LoadResult:
        """Run the barrage; returns the merged result."""
        result = LoadResult(threads=self.n_threads)
        lock = threading.Lock()
        barrier = threading.Barrier(self.n_threads)

        def worker(index: int) -> None:
            rng = random.Random((self.seed << 16) ^ index)
            local_latencies: list[float] = []
            local_statuses: dict[int, int] = {}
            local_errors: list[str] = []
            count = 0
            try:
                barrier.wait(timeout=10.0)
                for iteration in range(self.iterations):
                    request = self.request_factory(index, iteration, rng)
                    started = time.perf_counter()
                    response = self.container.handle(request)
                    elapsed = (time.perf_counter() - started) * 1000.0
                    count += 1
                    local_latencies.append(elapsed)
                    local_statuses[response.status] = (
                        local_statuses.get(response.status, 0) + 1
                    )
                    if self.think_time:
                        time.sleep(self.think_time)
            except Exception as exc:
                local_errors.append(f"thread {index}: {type(exc).__name__}: {exc}")
            with lock:
                result.requests += count
                result.latencies_ms.extend(local_latencies)
                result.errors.extend(local_errors)
                for status, n in local_statuses.items():
                    result.statuses[status] = result.statuses.get(status, 0) + n
                    if status >= 500:
                        result.server_errors += n

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.n_threads)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = started + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))
        alive = [t for t in threads if t.is_alive()]
        if alive:
            result.errors.append(
                f"{len(alive)} worker thread(s) still running after {timeout}s"
            )
        result.wall_seconds = time.perf_counter() - started
        return result


class AsyncLoadDriver:
    """Closed-loop HTTP load from N concurrent keep-alive connections.

    The threaded driver above dispatches through ``container.handle``
    in-process; this one speaks real HTTP, so it can benchmark the
    *serving tier* itself -- the wsgiref ``ThreadingMixIn`` baseline and
    the asyncio fast path alike.  Each of ``n_connections`` coroutine
    workers runs ``iterations`` rounds of send-request / read-response
    over one socket, reconnecting transparently when the server closes
    the connection (wsgiref is HTTP/1.0 close-per-request; the async
    tier keeps the socket alive), and cycling through ``paths``.

    Results merge into the same :class:`LoadResult` shape as the
    threaded driver (``threads`` = connections), so the reporting
    helpers work unchanged.
    """

    def __init__(
        self,
        host: str,
        port: int,
        paths: Sequence[str],
        n_connections: int = 8,
        iterations: int = 100,
    ) -> None:
        if not paths:
            raise ValueError("AsyncLoadDriver needs at least one path")
        self.host = host
        self.port = port
        self.paths = list(paths)
        self.n_connections = n_connections
        self.iterations = iterations

    def run(self, timeout: float = 120.0) -> LoadResult:
        return asyncio.run(self._run(timeout))

    async def _run(self, timeout: float) -> LoadResult:
        result = LoadResult(threads=self.n_connections)
        started = time.perf_counter()
        workers = [
            asyncio.create_task(self._worker(index, result))
            for index in range(self.n_connections)
        ]
        done, pending = await asyncio.wait(workers, timeout=timeout)
        for task in pending:
            task.cancel()
        if pending:
            result.errors.append(
                f"{len(pending)} connection worker(s) still running"
                f" after {timeout}s"
            )
        result.wall_seconds = time.perf_counter() - started
        return result

    async def _worker(self, index: int, result: LoadResult) -> None:
        reader: asyncio.StreamReader | None = None
        writer: asyncio.StreamWriter | None = None
        try:
            for iteration in range(self.iterations):
                path = self.paths[(index + iteration) % len(self.paths)]
                payload = (
                    f"GET {path} HTTP/1.1\r\n"
                    f"Host: {self.host}\r\n\r\n"
                ).encode("latin-1")
                begun = time.perf_counter()
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        self.host, self.port
                    )
                writer.write(payload)
                await writer.drain()
                status, keep_alive = await self._read_response(reader)
                elapsed = (time.perf_counter() - begun) * 1000.0
                # Single event loop, no cross-thread mutation: plain
                # appends are safe here even though LoadResult is shared.
                result.requests += 1
                result.latencies_ms.append(elapsed)
                result.statuses[status] = result.statuses.get(status, 0) + 1
                if status >= 500:
                    result.server_errors += 1
                if not keep_alive:
                    writer.close()
                    reader = writer = None
        except Exception as exc:
            result.errors.append(
                f"connection {index}: {type(exc).__name__}: {exc}"
            )
        finally:
            if writer is not None:
                writer.close()

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, bool]:
        """Consume one response; returns ``(status, keep_alive)``."""
        head = await reader.readuntil(b"\r\n\r\n")
        first, *header_lines = head.decode("latin-1").split("\r\n")
        version, code, *_ = first.split(" ", 2)
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None:
            await reader.readexactly(int(length))
            keep_alive = (
                version == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
            )
        else:
            await reader.read()  # close-delimited body: drain to EOF
            keep_alive = False
        return int(code), keep_alive


def hot_key_factory(uri: str, params: dict[str, str]) -> RequestFactory:
    """Every thread, every iteration: the same GET (the dogpile shape)."""

    def factory(_index: int, _iteration: int, _rng: random.Random) -> HttpRequest:
        return HttpRequest("GET", uri, dict(params))

    return factory
