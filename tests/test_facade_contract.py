"""The facade contract: what the woven tiers read from a cache exists on
the facade.

The caching aspects and the async server's fast path talk to one cache
object, the :class:`ClusterRouter` that :class:`AutoWebCache` builds --
a single node is the one-node ring.  This test collects, from their
source, every attribute read through a cache reference --
``self.cache.X``, a local ``cache.X``, ``server.cache.X`` -- and checks
that each resolves on the facade.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.cache import aspects, aspects_fragment, computation
from repro.cache.autowebcache import AutoWebCache
from repro.cluster.router import ClusterRouter
from repro.web import asyncserver

#: Module -> the classes whose cache reads are collected
#: (``_HttpConnection`` holds the async server's fast-path probe).
CLIENTS = {
    computation: ("CachedComputation",),
    aspects: ("ReadServletAspect", "WriteServletAspect", "JdbcConsistencyAspect"),
    aspects_fragment: ("FragmentCacheAspect",),
    asyncserver: ("AsyncCachedServer", "_HttpConnection"),
}


def _is_cache_reference(node: ast.expr) -> bool:
    """A local ``cache``, or ``<anything>.cache``."""
    if isinstance(node, ast.Name):
        return node.id == "cache"
    return isinstance(node, ast.Attribute) and node.attr == "cache"


def facade_reads() -> set[str]:
    reads = set()
    for module, classes in CLIENTS.items():
        tree = ast.parse(inspect.getsource(module))
        found = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
        ]
        assert sorted(c.name for c in found) == sorted(classes), module.__name__
        for cls in found:
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and _is_cache_reference(node.value):
                    reads.add(node.attr)
    return reads


READS = sorted(facade_reads())


def test_the_miss_protocol_is_among_the_reads():
    assert {
        "check", "check_key", "fast_check", "insert", "insert_key",
        "join_flight", "wait_flight", "finish_flight", "begin_window",
        "end_window", "process_write_request",
    } <= set(READS)
    assert "coalesce" not in READS  # the driver has no branch on it


@pytest.fixture(scope="module")
def facade():
    facade = AutoWebCache().cache
    assert isinstance(facade, ClusterRouter)
    return facade


@pytest.mark.parametrize("name", READS)
def test_each_read_resolves_on_both_facades(facade, name):
    assert hasattr(facade, name), f"ClusterRouter has no {name}"


def test_the_row_witness_reads_are_among_the_reads():
    assert {"written_tables", "witness", "probe_plan"} <= set(READS)


@pytest.mark.parametrize("cluster", [False, True], ids=["cache", "ring"])
def test_an_insert_probes_for_the_join_reads_that_are_registered(cluster):
    """The probe plan lists a partner edge only while a read template
    with that edge has a registration; on a three-node ring, any
    node's."""
    from repro.cache.entry import QueryInstance
    from repro.sql.lineage import Catalog
    from repro.sql.template import templateize

    catalog = Catalog(
        {"items": ("id", "seller", "name"), "users": ("id", "region")},
        {"items": "id", "users": "id"},
    )
    names = ["n0", "n1", "n2"] if cluster else ["n0"]
    facade = ClusterRouter(names, catalog=catalog)
    join = QueryInstance(
        *templateize(
            "SELECT items.name FROM items, users "
            "WHERE items.seller = users.id AND users.region = ?",
            (1,),
        )
    )
    write, _values = templateize(
        "INSERT INTO items (seller, name) VALUES (?, ?)", (1, "x")
    )
    assert facade.probe_plan(write) == ()
    facade.insert_key("/region?r=1", "body", [join])
    assert facade.probe_plan(write) == (("seller", "users", "id"),)
    facade.invalidate_key("/region?r=1")
    assert facade.probe_plan(write) == ()


@pytest.mark.parametrize("cluster", [False, True], ids=["cache", "ring"])
def test_a_read_captures_a_witness_only_over_written_tables(cluster):
    """Before a table's first woven write nothing is captured (a
    read-only workload pays nothing); after it, a read projecting the
    table's key remembers the keys it showed."""
    from tests.conftest import build_notes_app

    db, container = build_notes_app()
    awc = AutoWebCache(n_nodes=2 if cluster else 1)
    awc.install(container.servlet_classes)

    def reads_of(key):
        caches = [node.cache for node in awc.router.nodes()]
        (entry,) = [c.pages.peek(key) for c in caches if key in c.pages]
        return entry.dependencies

    try:
        container.post("/add", {"id": "1", "topic": "a", "body": "x", "score": "1"})
        container.get("/view_note", {"id": "1"})
        assert awc.cache.written_tables == {"notes"}
        # The witness needs the key projected: /view_note shows none.
        assert [read.witness for read in reads_of("/view_note?id=1")] == [None]
        container.post("/add", {"id": "7", "topic": "a", "body": "y", "score": "2"})
        container.get("/view_topic", {"topic": "a"})
        assert [read.witness for read in reads_of("/view_topic?topic=a")] == [
            ((0, (1, 7)),)
        ]
    finally:
        awc.uninstall()


def test_before_any_write_nothing_is_captured():
    from tests.conftest import build_notes_app, node_store

    db, container = build_notes_app()
    db.update("INSERT INTO notes (id, topic, body, score) VALUES (1, 'a', 'x', 1)")
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        container.get("/view_topic", {"topic": "a"})
        (entry,) = node_store(awc).pages.entries()
        assert awc.cache.written_tables == set()
        assert [read.witness for read in entry.dependencies] == [None]
    finally:
        awc.uninstall()
