"""A ring analyses each write once: verdicts ride the bus message.

A write's template-level work -- the lineage skip, the pair analysis,
the bound instance filter -- is the same on every shard, so the first
node to reach a (write, read template) cell of the message's verdict
table fills it and the nodes after it read it.  These tests pin that a
four-node ring then dooms what a one-node ring dooms, counting the same
template-level work, and that a cell filled under one catalog is never
read under another.
"""

from __future__ import annotations

import pytest

from repro.cache.entry import QueryInstance
from repro.cache.invalidation import NEVER
from repro.cluster.router import ClusterRouter
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

CATALOG = Catalog(
    {"notes": ("id", "topic", "body", "score"), "topics": ("id", "name")},
    {"notes": "id", "topics": "id"},
)

#: Read templates, each bound to a handful of values per page.
READS = (
    "SELECT body, score FROM notes WHERE id = ?",
    "SELECT id, body FROM notes WHERE topic = ?",
    "SELECT topic FROM notes WHERE id = ?",
    "SELECT name FROM topics WHERE id = ?",
    "SELECT notes.body, topics.name FROM notes, topics "
    "WHERE notes.topic = topics.name AND topics.id = ?",
)

#: A write sequence touching every read template in some way (and
#: sparing some by lineage, some by value).
WRITES = (
    ("UPDATE notes SET score = ? WHERE id = ?", (7, 3)),
    ("UPDATE notes SET body = ? WHERE topic = ?", ("x", "t1")),
    ("UPDATE topics SET name = ? WHERE id = ?", ("t9", 2)),
    ("DELETE FROM notes WHERE id = ?", (5,)),
    ("INSERT INTO notes (id, topic, body, score) VALUES (?, ?, ?, ?)", (40, "t2", "b", 0)),
    ("UPDATE notes SET score = ? WHERE id = ?", (1, 6)),
)


def page(text: str, value: object) -> QueryInstance:
    return QueryInstance(*templateize(text, (value,)))


def write(text: str, params: tuple) -> QueryInstance:
    return QueryInstance(*templateize(text, params))


def populate(router: ClusterRouter) -> None:
    for t, text in enumerate(READS):
        for k in range(8):
            value = f"t{k}" if "topic = ?" in text else k
            router.insert_key(f"/r{t}?k={k}", "body", [page(text, value)])


def replay(n_nodes: int) -> tuple[list[set[str]], dict]:
    router = ClusterRouter([f"n{i}" for i in range(n_nodes)], catalog=CATALOG)
    populate(router)
    doomed = []
    for text, params in WRITES:
        doomed.append(router.process_write_request("/w", [write(text, params)]))
        populate(router)  # the doomed pages are back for the next write
    return doomed, router.stats.snapshot()["cluster"]


def test_a_four_node_ring_dooms_and_analyses_what_one_node_does():
    one_doomed, one = replay(1)
    four_doomed, four = replay(4)
    assert four_doomed == one_doomed
    assert all(one_doomed)
    for counter in (
        "pair_analyses",
        "templates_skipped_by_lineage",
        "column_plans_built",
        "intersection_tests",
        "invalidated_pages",
    ):
        assert four[counter] == one[counter], counter
    assert one["templates_skipped_by_lineage"] > 0


def delivered_cells(router: ClusterRouter) -> list[list[dict]]:
    """Each message's verdict cells as the last subscriber saw them:
    the bus empties a table once its delivery pass is over."""
    seen: list[list[dict]] = []
    router.bus.subscribe(
        "after-the-nodes",
        lambda message: seen.append([dict(c) for c in message.verdicts]) or set(),
    )
    return seen


def test_each_cell_is_filled_by_the_first_node_that_reaches_it():
    router = ClusterRouter(["n0", "n1", "n2", "n3"], catalog=CATALOG)
    populate(router)
    seen = delivered_cells(router)
    router.process_write_request("/w", [write(*WRITES[0])])
    ((cells,),) = seen
    (message,) = router.bus.recent()
    assert message.verdicts == ({},)  # the pass is over: nothing retained
    # Every read template shares the notes or topics table; only the
    # notes templates are candidates for an UPDATE of notes.
    version = router.engine.catalog_version
    judged = {template: verdict for template, (v, verdict) in cells.items()}
    assert all(v == version for v, _verdict in cells.values())
    assert set(judged) == {
        page(text, 0).template for text in READS if "FROM notes" in text
    }
    # Only the first reads ``score``; the other three are lineage-disjoint.
    for text in (READS[1], READS[2], READS[4]):
        assert judged[page(text, 0).template] is NEVER
    plan = judged[page(READS[0], 0).template]
    assert plan.pair.possible and plan.selected == (0, frozenset({3}))
    # Counted once per ring, by whichever node filled the cell.
    assert router.stats.pair_analyses == 1
    assert router.stats.templates_skipped_by_lineage == 3


def pages_on_both(router: ClusterRouter, text: str) -> None:
    """Pages of ``text`` on both nodes of a two-node ring."""
    owners = set()
    for k in range(64):
        key = f"/r?k={k}"
        owner = router.owner_name(key)
        if owner not in owners:
            owners.add(owner)
            router.insert_key(key, "body", [page(text, k)])
    assert owners == {"a", "b"}


@pytest.mark.parametrize("swap", [False, True], ids=["same-catalog", "swapped"])
def test_a_catalog_swap_between_two_deliveries_makes_the_later_node_recompute(swap):
    """Node ``a`` fills the cell; a subscriber between ``a`` and ``b``
    swaps the catalog; ``b`` must analyse afresh, not read ``a``'s cell."""
    router = ClusterRouter(["a"], catalog=CATALOG)

    def between(message) -> set:
        if swap:
            router.engine.set_catalog(
                Catalog(
                    {"notes": ("id", "topic", "body", "score"), "topics": ("id", "name")},
                    {"notes": "id", "topics": "id"},
                )
            )
        return set()

    router.bus.subscribe("between", between)
    router.add_node("b")
    seen = delivered_cells(router)
    read = READS[0]
    pages_on_both(router, read)
    before = router.engine.catalog_version
    router.process_write_request("/w", [write(*WRITES[0])])
    a, b = router.node("a").cache.stats, router.node("b").cache.stats
    assert a.pair_analyses == 1
    assert b.pair_analyses == (1 if swap else 0)
    ((cells,),) = seen
    ((version, _verdict),) = cells.values()
    assert version == router.engine.catalog_version == before + swap
