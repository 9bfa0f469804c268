"""The "outputs are correct" check.

Replays a seeded request sequence on **one** connection through the
woven async server (a child process, exactly as timed) and asserts every
body is byte-identical -- by ``repro.workload.trace`` digest -- to the
same sequence dispatched in-process through an unwoven twin of the
application.  Both apps come from the same builder with its default
seeds, so TPC-W's ad rotator draws identically on both sides.

The twin must stay unwoven: weaving patches classes, not instances, so
nothing in this (parent) process may ever call ``install``.
"""

from __future__ import annotations

from bench.client import Child, Connection
from bench.workloads import (
    VERIFY_REQUESTS,
    Request,
    Workload,
    build_app,
    generate,
)
from repro.web.http import HttpRequest
from repro.workload.trace import body_digest


def expected_digests(workload: Workload, requests: list[Request]) -> list[tuple[int, str]]:
    """(status, digest) per request from the in-process unwoven twin."""
    container = build_app(workload).container
    carts: dict[int, str] = {}
    expected = []
    for request in requests:
        response = container.handle(
            HttpRequest(request.method, request.uri, request.resolved_params(carts))
        )
        request.observe(response.body.encode("utf-8"), carts)
        expected.append((response.status, body_digest(response.body)))
    return expected


def verify(
    workload: Workload, seed: int, cpu: int | None, count: int = VERIFY_REQUESTS
) -> list[str]:
    """Mismatch descriptions; empty when every response is correct."""
    requests = generate(workload, seed, "verify", count)
    expected = expected_digests(workload, requests)
    problems = []
    child = Child(workload.name, cpu)
    connection = Connection(child.port)
    try:
        carts: dict[int, str] = {}
        for index, (request, (want_status, want_digest)) in enumerate(
            zip(requests, expected)
        ):
            status, body = connection.exchange(request.wire_for(carts))
            request.observe(body, carts)
            digest = body_digest(body.decode("utf-8"))
            if not 200 <= status < 300 or (status, digest) != (want_status, want_digest):
                problems.append(
                    f"#{index} {request.method} {request.uri} {request.params}:"
                    f" expected {want_status}/{want_digest}, got {status}/{digest}"
                )
    finally:
        connection.close()
        child.stop()
    return problems
