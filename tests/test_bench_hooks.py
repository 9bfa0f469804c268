"""Fail fast on a renamed bench hook.

``bench/tracing.py`` patches ``src/repro`` attributes *by name* from
outside the package; a rename used to be noticed only by the traced
round of ``make bench-e2e``.  This tier-1 test asserts every name it
reaches for still resolves (no sockets, nothing is patched), that the
one hook patched on an *instance* -- ``server.executor.submit`` -- is
still what a slow request goes through, and that a fast hit answered
through the head memo still passes the patched ``fast_check`` and
``build_wire`` (patched for that test only, then restored).  It also
pins what ``bench/server.py`` reads from every workload's facade.
"""

from __future__ import annotations

import pytest

import repro.cache.aspects as aspects
import repro.db.engine as engine
import repro.sql.template as template
import repro.web.asyncserver as asyncserver
from bench import tracing
from bench.workloads import WORKLOADS, build_facade
from repro.apps.html import PageComposer
from repro.cache.api import Cache
from repro.cluster.bus import InvalidationBus
from repro.cluster.router import ClusterRouter
from repro.db.dbapi import Statement
from repro.web.servlet import HttpServlet

from tests.test_async_server import deliver, get, notes_server, raw_exchange

#: The one facade method the router does not have (bench/tracing.py
#: guards it with ``hasattr``; anything else going missing is a rename).
ROUTER_LACKS = {"apply_writes"}

HOOKS = (
    [(Cache, method) for method in tracing.FACADE_METHODS]
    + [
        (ClusterRouter, method)
        for method in tracing.FACADE_METHODS
        if method not in ROUTER_LACKS
    ]
    + [(HttpServlet, handler) for handler in tracing.HANDLERS]
    + [(Statement, method) for method in tracing.DRIVER_CALLS]
    + [(PageComposer, method) for method in tracing.COMPOSER_CALLS]
    + [
        (InvalidationBus, "publish"),
        (aspects, "templateize"),
        (template, "parse_statement"),
        (engine, "parse_statement"),
        (engine.Database, "execute_statement"),
        (asyncserver, "build_wire"),
        (asyncserver.AsyncCachedServer, "render"),
        (asyncserver._HttpConnection, "data_received"),
    ]
)


@pytest.mark.parametrize(
    "owner, name",
    HOOKS,
    ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS],
)
def test_bench_tracing_hook_resolves(owner, name):
    assert callable(getattr(owner, name, None)), (
        f"bench/tracing.py patches {owner.__name__}.{name} by name"
    )


def test_jdbc_advice_calls_the_patched_templateize():
    """``templateize`` must stay the *module attribute* the JDBC advice
    looks up at call time, or the ``sql.templateize`` span goes dark."""
    advice = aspects.JdbcConsistencyAspect.collect_dependency_info
    assert "templateize" in advice.__code__.co_names


def test_slow_requests_pass_through_the_patched_submit_once():
    """``bench/server.py`` calls ``recorder.wrap_submit(server.executor)``
    after start-up; ``web.offload`` / ``web.executor_wait`` (and with
    them ``trace.self_sum_ratio``) exist only if every slow request --
    and no fast hit -- then goes through that instance attribute."""
    recorder = tracing.Recorder()
    with notes_server() as (server, _container, _awc):
        recorder.wrap_submit(server.executor)
        recorder.enabled = True
        miss = raw_exchange(server.port, "/view_note?id=1")
        hit = raw_exchange(server.port, "/view_note?id=1")
        assert miss == hit
        assert (server.stats.slow_requests, server.stats.fast_hits) == (1, 1)
    assert sorted(span[3] for span in recorder.spans) == [
        "web.executor_wait",
        "web.offload",
    ]


def test_a_remembered_fast_hit_still_emits_its_spans():
    """A hit answered through the server's head memo must still reach
    ``fast_check`` through ``server.cache`` and ``build_wire`` through
    the module global, or the traced round loses ``cache.fast_check``
    and ``web.build_wire`` on the hot workload."""
    recorder = tracing.Recorder()
    missing = object()
    patched = [(owner, name) for owner, name in HOOKS if owner is not HttpServlet]
    with notes_server(start=False) as (server, _container, _awc):
        saved = [(owner, name, vars(owner).get(name, missing)) for owner, name in patched]
        try:
            tracing.install_woven(recorder, ())
            recorder.enabled = True
            request = get("/view_note?id=1")
            deliver(server, [request])  # the miss that remembers the head
            assert request[:-4] in server.head_memo
            del recorder.spans[:]
            deliver(server, [request])
        finally:
            recorder.enabled = False
            for owner, name, value in reversed(saved):
                if value is missing:
                    delattr(owner, name)
                else:
                    setattr(owner, name, value)
        assert server.stats.fast_hits == 1
    assert sorted(span[3] for span in recorder.spans) == [
        "cache.fast_check",
        "cluster.fast_check",
        "web.build_wire",
        "web.request",
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_bench_server_finds_what_it_reads_on_every_facade(name):
    """``bench/server.py`` picks its counter branch with ``hasattr(awc,
    "cluster_snapshot")`` -- every workload's facade is a ring, so every
    one takes the ring branch -- and then reads these by name.  A gap
    there would crash the benchmark instead of failing a test."""
    awc = build_facade(WORKLOADS[name])
    snapshot = awc.cluster_snapshot()
    assert isinstance(snapshot["cluster"], dict)
    assert {"published", "delivered", "pages_invalidated"} <= set(snapshot["bus"])
    nodes = awc.router.nodes()
    assert len(nodes) == len(snapshot["nodes"]) == max(WORKLOADS[name].nodes, 1)
    for node, node_snapshot in zip(nodes, snapshot["nodes"]):
        assert node_snapshot["stats"]["lookups"] == 0
        pages = node.cache.pages
        assert (pages.total_bytes, len(pages)) == (0, 0)
    assert callable(awc.install)
    assert callable(awc.cache.fast_check)
