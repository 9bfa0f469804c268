"""The parent's side: spawn and command the server child, and load it.

All load comes from this process: one thread and one blocking
keep-alive connection per :data:`~bench.workloads.CONNECTIONS`.  Two
phase shapes over the same per-connection request lists:

* closed loop -- each connection sends its next request only after the
  previous reply, until a deadline (saturation throughput);
* paced -- open loop: request *i* is due at ``t0 + i/rate``; the sender
  sleeps with ``time.sleep`` until then (asyncio timers' ~1 ms
  granularity would dominate a hit-path median) and latency is timed
  **from the due time**, so a stall charges the requests queued behind
  it.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench.workloads import CONNECTIONS, Request

SERVER = Path(__file__).resolve().parent / "server.py"


class Child:
    """A running ``bench/server.py``; ``setup_s`` is spawn -> listening."""

    def __init__(self, workload: str, cpu: int | None, trace_path=None) -> None:
        command = [sys.executable, str(SERVER), "--workload", workload]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        self.spawned_ns = time.perf_counter_ns()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.hello = self._read()
        except Exception:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = self.hello["port"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with {self.process.wait()} before answering"
            )
        return json.loads(line)

    def command(self, word: str) -> dict:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Final snapshot, then wait for the child to end.

        The caller has closed its sockets already; the child prints its
        last line and returns from ``main`` on its own.
        """
        try:
            final = self.command("stop")
            self.process.wait(timeout=30)
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class ShortBody(Exception):
    """The server closed the connection before a full response arrived."""


class Connection:
    """One blocking HTTP/1.1 keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: socket.socket | None = None

    def open(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def exchange(self, wire: bytes) -> tuple[int, bytes]:
        """Send one request, read one response -> (status, body)."""
        if self.sock is None:
            self.open()
        sock = self.sock
        sock.sendall(wire)
        data = b""
        while True:
            more = sock.recv(65536)
            if not more:
                raise ShortBody("connection closed before the header ended")
            data += more
            head_end = data.find(b"\r\n\r\n")
            if head_end >= 0:
                break
        status = int(data[9:12])
        mark = data.rfind(b"Content-Length: ", 0, head_end)
        length = int(data[mark + 16 : head_end])
        body = data[head_end + 4 :]
        while len(body) < length:
            more = sock.recv(65536)
            if not more:
                raise ShortBody(f"body ended at {len(body)} of {length} bytes")
            body += more
        return status, body


@dataclass
class PhaseResult:
    """What one phase's connections saw, merged."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    body_bytes: int = 0
    #: ms per answered request: reply - send (closed) or reply - due (paced).
    latencies_ms: list[float] = field(default_factory=list)
    write_latencies_ms: list[float] = field(default_factory=list)
    #: paced only: how late each request left the generator.
    late_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_phase(
    port: int,
    requests: list[Request],
    *,
    seconds: float | None = None,
    rate: float | None = None,
) -> PhaseResult:
    """Drive ``requests`` over :data:`CONNECTIONS` connections.

    ``rate`` selects the paced shape (the whole list is sent); otherwise
    the phase is closed-loop and stops at ``seconds`` (``None``: when
    the list runs out -- the warm-up).  Request *i* goes down connection
    ``i % CONNECTIONS``, which keeps each session on one connection.
    """
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    for connection in connections:
        connection.open()
    t0 = time.perf_counter() + 0.01  # both threads are running by then
    deadline = None if seconds is None else t0 + seconds

    def drive(index: int, local: PhaseResult) -> None:
        connection = connections[index]
        carts: dict[int, str] = {}
        time.sleep(max(0.0, t0 - time.perf_counter()))
        for i in range(index, len(requests), CONNECTIONS):
            request = requests[i]
            if rate is not None:
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                local.late_ms.append((time.perf_counter() - due) * 1000.0)
            else:
                due = time.perf_counter()
                if deadline is not None and due >= deadline:
                    break
            local.attempted += 1
            try:
                status, body = connection.exchange(request.wire_for(carts))
            except (OSError, ValueError, ShortBody) as exc:
                local.failed += 1
                local.failures.append(f"{request.uri}: {type(exc).__name__}: {exc}")
                connection.close()
                continue
            elapsed = (time.perf_counter() - due) * 1000.0
            if not 200 <= status < 300:
                local.failed += 1
                local.failures.append(f"{request.uri}: status {status}")
                continue
            local.latencies_ms.append(elapsed)
            if request.is_write:
                local.write_latencies_ms.append(elapsed)
            local.body_bytes += len(body)
            request.observe(body, carts)

    results = [PhaseResult() for _ in connections]

    def worker(index: int) -> None:
        local = results[index]
        try:
            drive(index, local)
        except Exception as exc:  # a harness bug must fail the run, not die with the thread
            local.attempted += 1
            local.failed += 1
            local.failures.insert(0, f"connection {index} crashed: {exc!r}")
        local.wall_s = time.perf_counter() - t0
        connections[index].close()

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = PhaseResult(wall_s=max(local.wall_s for local in results))
    for local in results:
        merged.attempted += local.attempted
        merged.failed += local.failed
        merged.body_bytes += local.body_bytes
        merged.latencies_ms += local.latencies_ms
        merged.write_latencies_ms += local.write_latencies_ms
        merged.late_ms += local.late_ms
        merged.failures += local.failures[:5]
    return merged
