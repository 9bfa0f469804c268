"""What a write may not do, counted -- no timing anywhere.

A write does its template-level work once per write template per shard
(the shard's doom program), binds its own side once per write however
many nodes and read templates need it, crosses the router, the bus and
each node in one lock round each, and a shard with no template on the
written tables does nothing but count.  The memos behind this never
hide a template registered before they were read.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.cluster.router as router_module
from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.analysis import InvalidationPolicy, PruneRule, QueryAnalysisEngine
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.dependency import DependencyTable
from repro.cache.entry import QueryInstance
from repro.cache.invalidation import Invalidator
from repro.cluster.router import ClusterRouter
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

from tests.conftest import bare_store, build_notes_app, count_calls
from tests.test_miss_path_invariants import middleware_calls

CATALOG = Catalog(
    {"notes": ("id", "topic", "body", "score"), "topics": ("id", "name")},
    {"notes": "id", "topics": "id"},
)
BODY = "SELECT body FROM notes WHERE id = ?"
TOPIC = "SELECT topic FROM notes WHERE id = ?"
NAME = "SELECT name FROM topics WHERE id = ?"
JOIN = (
    "SELECT notes.body, topics.name FROM notes, topics "
    "WHERE notes.topic = topics.name AND topics.id = ?"
)
UPDATE = "UPDATE notes SET body = ?, topic = ? WHERE id = ?"
INSERT = "INSERT INTO notes (id, topic, body, score) VALUES (?, ?, ?, ?)"


def instance(sql: str, *values) -> QueryInstance:
    return QueryInstance(*templateize(sql, values))


def cache_page(facade, key: str, sql: str, value) -> None:
    facade.insert_key(key, "body", [instance(sql, value)])


# -- middleware calls and lock rounds ---------------------------------------------


def test_a_warm_bidding_write_makes_at_most_80_middleware_calls():
    """``store_bid`` (an UPDATE of the item, an INSERT of the bid) over
    warm pages, programs and probe plan: 112 calls when every write
    re-decided each read template, crossed the router lock twice and
    filtered dead registrations out of every bucket it read."""
    app = build_rubis(RubisDataset(n_users=20, n_items=30))
    awc = AutoWebCache()
    awc.install(app.servlet_classes)
    try:
        container = app.container

        def warm() -> None:
            for item in ("1", "2", "3"):
                container.get("/rubis/view_item", {"item": item})
                container.get("/rubis/view_bid_history", {"item": item})

        def bid(item: str, user: str, amount: str):
            return container.post(
                "/rubis/store_bid",
                {"item": item, "user": user, "bid": amount, "max_bid": amount, "qty": "1"},
            )

        warm()
        assert bid("1", "2", "999").status == 200
        warm()
        doomed = awc.stats.invalidated_pages
        calls = middleware_calls(lambda: bid("2", "3", "1999"))
        assert awc.stats.invalidated_pages > doomed
        assert calls <= 80
    finally:
        awc.uninstall()


@pytest.mark.parametrize("n_nodes, rounds", [(1, 3), (4, 6)])
def test_a_warm_write_takes_one_lock_round_on_the_router_the_bus_and_each_node(
    lock_rounds, n_nodes, rounds
):
    """An INSERT whose probe plan is current: the plan is read without a
    lock, and the write is one router section around one bus publish
    that enters each node's cache once."""
    _db, container = build_notes_app()
    awc = AutoWebCache(n_nodes=n_nodes)
    awc.install(container.servlet_classes)
    try:
        for note in ("1", "2", "3"):
            container.post("/add", {"id": note, "topic": "a", "body": "x"})
            container.get("/view_note", {"id": note})
        lock_rounds[0] = 0
        assert container.post("/add", {"id": "4", "topic": "a", "body": "y"}).status == 200
        assert lock_rounds[0] == rounds
    finally:
        awc.uninstall()


# -- a shard with nothing to doom ---------------------------------------------------


def test_a_shard_with_no_template_on_the_written_tables_visits_and_binds_nothing(
    monkeypatch,
):
    router = ClusterRouter(["n0", "n1", "n2", "n3"], catalog=CATALOG)
    for k in range(12):
        cache_page(router, f"/body?k={k}", BODY, k)
        cache_page(router, f"/topic?k={k}", TOPIC, k)
    walked = count_calls(monkeypatch, Invalidator, "_walk")
    bound = count_calls(monkeypatch, PruneRule, "allowed_values")
    seen = []
    router.bus.subscribe("after-the-nodes", lambda message: seen.append(message) or set())
    rename = instance("UPDATE topics SET name = ? WHERE id = ?", "t", 1)
    assert router.process_write_request("/w", [rename]) == set()
    assert walked == [0] and bound == [0]
    ((binding,),) = [message.bindings for message in seen]
    assert (binding.allowed, binding.written, binding.partners) == ({}, {}, {})
    # Each node counts every template it holds as skipped by the table
    # index, and nothing else.
    held = [node.cache.pages.dependencies.template_count for node in router.nodes()]
    assert all(held)
    for node, templates in zip(router.nodes(), held):
        stats = node.cache.stats
        assert stats.templates_skipped_by_index == templates
        assert stats.pair_analyses == stats.intersection_tests == 0


def test_a_pass_with_nothing_to_probe_takes_nothing_in():
    """Registrations of templates a node already holds wait for the first
    reader that needs them: a write no template shares a table with
    leaves them pending, and counts what taking them in would count."""
    router = ClusterRouter(["n0", "n1"], catalog=CATALOG)
    for k in range(8):
        cache_page(router, f"/body?k={k}", BODY, k)
    router.process_write_request("/w", [instance(UPDATE, "b", "t", 99)])  # takes all in
    for k in range(8, 16):
        cache_page(router, f"/body?k={k}", BODY, k)
    tables = [node.cache.pages.dependencies for node in router.nodes()]
    assert all(table._pending for table in tables)
    skipped = router.stats.templates_skipped_by_index
    rename = instance("UPDATE topics SET name = ? WHERE id = ?", "t", 1)
    assert router.process_write_request("/w", [rename]) == set()
    assert all(table._pending for table in tables)  # still pending
    assert router.stats.templates_skipped_by_index == skipped + 2  # one per node
    assert router.process_write_request("/w", [instance(UPDATE, "b", "t", 12)]) == {
        "/body?k=12"
    }
    assert not any(table._pending for table in tables)


# -- the bound side, once per write -------------------------------------------------


def test_the_bound_side_is_computed_once_per_write_across_four_nodes(monkeypatch):
    """Two read templates on every node prune by the same write side
    (the UPDATE's ``id``): it is resolved once for the whole ring."""
    router = ClusterRouter(["n0", "n1", "n2", "n3"], catalog=CATALOG)
    for k in range(16):
        cache_page(router, f"/body?k={k}", BODY, k)
        cache_page(router, f"/topic?k={k}", TOPIC, k)
    assert all(node.cache.pages.dependencies.template_count == 2 for node in router.nodes())
    bound = count_calls(monkeypatch, PruneRule, "allowed_values")
    doomed = router.process_write_request("/w", [instance(UPDATE, "b", "t", 3)])
    assert doomed == {"/body?k=3", "/topic?k=3"}
    assert bound == [1]
    # Template-level work is still counted once per ring.
    assert router.stats.pair_analyses == 2


# -- the doom program ---------------------------------------------------------------


def test_the_program_is_rebuilt_when_the_candidates_or_the_catalog_change():
    """A template's first and last registration on the written table and
    a catalog swap rebuild the write template's program; a template on
    another table does not.  Each write dooms what the brute-force
    protocol dooms."""
    cache = bare_store()
    invalidator = cache.invalidator
    cache_page(cache, "/body?k=1", BODY, 1)
    cache_page(cache, "/body?k=2", BODY, 2)

    def write_and_check(*values) -> set[str]:
        write = instance(UPDATE, *values)
        expected = invalidator.affected_pages([write], indexed=False)
        doomed = cache.process_write_request("/w", [write])
        assert doomed == expected
        return doomed

    built = invalidator.programs_built
    assert write_and_check("b", "t", 1) == {"/body?k=1"}
    assert invalidator.programs_built == built + 1
    assert write_and_check("b", "t", 9) == set()
    assert invalidator.programs_built == built + 1  # steady: no rebuild
    cache_page(cache, "/name?k=1", NAME, 1)  # another table
    assert write_and_check("b", "t", 9) == set()
    assert invalidator.programs_built == built + 1
    cache_page(cache, "/topic?k=2", TOPIC, 2)  # first registration
    assert write_and_check("b", "t", 2) == {"/body?k=2", "/topic?k=2"}
    assert invalidator.programs_built == built + 2
    cache_page(cache, "/body?k=5", BODY, 5)  # TOPIC's last page went
    assert write_and_check("b", "t", 5) == {"/body?k=5"}
    assert invalidator.programs_built == built + 3
    cache.invalidator.engine.set_catalog(CATALOG)  # a swap
    cache_page(cache, "/body?k=6", BODY, 6)
    assert write_and_check("b", "t", 6) == {"/body?k=6"}
    assert invalidator.programs_built == built + 4


# -- the probe-plan memo ------------------------------------------------------------


def test_a_template_still_arriving_does_not_move_its_tables_stamp_again():
    """Registrations are taken in by the next reader; a second page of a
    template the table has not taken in yet must not move the stamp a
    second time (a memo read in between would be rebuilt for nothing)."""
    table = DependencyTable()
    table.register("/p1", (instance(BODY, 1),))
    first = table.stamp({"notes"})
    assert first > 0
    table.register("/p2", (instance(BODY, 2),))
    assert table.stamp({"notes"}) == first
    assert table.instance_count(instance(BODY, 0).template) == 2  # taken in
    table.register("/p3", (instance(BODY, 3),))
    assert table.stamp({"notes"}) == first
    table.register("/p4", (instance(NAME, 1),))
    assert table.stamp({"notes"}) == first  # another table's template
    for page in ("/p1", "/p2", "/p3"):
        table.unregister(page)
    assert table.stamp({"notes"}) > first  # the template's last page went


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_a_probe_plan_is_rebuilt_only_when_a_template_on_its_tables_moves(
    monkeypatch, n_nodes
):
    router = ClusterRouter([f"n{i}" for i in range(n_nodes)], catalog=CATALOG)
    insert = instance(INSERT, 9, "t", "b", 0).template
    planned = count_calls(monkeypatch, router_module, "probe_plan")
    assert router.probe_plan(insert) == ()
    assert router.probe_plan(insert) == () and planned == [1]
    for k in range(8):
        cache_page(router, f"/name?k={k}", NAME, k)  # topics only
    assert router.probe_plan(insert) == () and planned == [1]
    cache_page(router, "/join?k=1", JOIN, 1)
    # Registered before the plan was read: the plan probes for it.
    assert router.probe_plan(insert) == (("topic", "topics", "name"),)
    assert planned == [2]
    assert router.probe_plan(insert) == (("topic", "topics", "name"),)
    assert planned == [2]


@pytest.mark.concurrency
def test_a_probe_plan_read_while_pages_register_never_misses_an_earlier_template():
    """Two threads register pages of eight join templates (one partner
    edge each) on a four-node ring, a third publishes writes no page
    reads (each node settles its pending registrations under its lock),
    and two more read the INSERT's probe plan without a lock: every
    template registered before a read began is in the plan it returns."""
    catalog = Catalog(
        {
            "notes": ("id", "topic", "body", "score"),
            "topics": ("id", "name"),
            "audit": ("id", "what"),
        },
        {"notes": "id", "topics": "id", "audit": "id"},
    )
    router = ClusterRouter([f"n{i}" for i in range(4)], catalog=catalog)
    insert = instance(INSERT, 9, "t", "b", 0).template
    edges = [(c, u) for c in ("id", "topic", "body", "score") for u in ("id", "name")]
    registered: list[tuple[str, str, str]] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def register(share: int) -> None:
        try:
            for column, partner in edges[share::2]:
                sql = (
                    f"SELECT notes.body FROM notes, topics WHERE notes.{column} = "
                    f"topics.{partner} AND topics.id = ?"
                )
                for page in range(24):
                    cache_page(router, f"/{column}-{partner}?p={page}", sql, page)
                registered.append((column, "topics", partner))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def plan() -> None:
        try:
            while not stop.is_set():
                before = set(registered)
                missing = before - set(router.probe_plan(insert))
                if missing:
                    errors.append(AssertionError(f"plan missed {sorted(missing)}"))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def write() -> None:
        try:
            audit = 0
            while not stop.is_set():
                audit += 1
                row = instance("INSERT INTO audit (id, what) VALUES (?, ?)", audit, "x")
                router.process_write_request("/audit", [row])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    registrars = [threading.Thread(target=register, args=(share,)) for share in (0, 1)]
    others = [threading.Thread(target=plan) for _ in range(2)]
    others.append(threading.Thread(target=write))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in others + registrars:
            thread.start()
        for thread in registrars:
            thread.join(timeout=60)
        stop.set()
        for thread in others:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in registrars + others)
    assert errors == []
    assert len(router.probe_plan(insert)) == len(edges) == len(registered)


@pytest.mark.concurrency
def test_nodes_deciding_pair_cells_at_once_give_each_write_side_one_id():
    """A binding memoises a rule's allowed set by its write side's id, so
    two sides sharing an id would hand one write's values to another
    rule.  Four threads (nodes under their own locks) decide the same
    thirty pairs at once, each from its own starting pair; every side
    gets one id, distinct per side."""
    tables = [f"t{i}" for i in range(30)]
    catalog = Catalog({t: ("a", "b", "c") for t in tables}, {t: "a" for t in tables})
    analysis = AnalysisCache(QueryAnalysisEngine(catalog=catalog))
    pairs = [
        (
            templateize(f"SELECT c FROM {t} WHERE a = ?", (1,))[0],
            templateize(f"UPDATE {t} SET c = ? WHERE a = ?", (1, 2))[0],
        )
        for t in tables
    ]
    seen: list[dict[str, int]] = []
    errors: list[BaseException] = []
    start = threading.Barrier(4)

    def decide(offset: int) -> None:
        ids: dict[str, int] = {}
        try:
            start.wait(timeout=30)
            for read, write in pairs[offset:] + pairs[:offset]:
                cells = analysis.pair_cells(write, InvalidationPolicy.EXTRA_QUERY)
                (verdict, _built) = analysis.decide(
                    cells, read, write, InvalidationPolicy.EXTRA_QUERY
                )
                ((side, _rule),) = verdict[1]
                ids[write.text] = side
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        seen.append(ids)

    threads = [threading.Thread(target=decide, args=(7 * k,)) for k in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == 4 and all(ids == seen[0] for ids in seen)
    assert len(set(seen[0].values())) == len(tables)
