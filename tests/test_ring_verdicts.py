"""A ring analyses and binds each write once: bindings ride the bus message.

A write's side of the instance tests -- a rule's allowed set, the keys
it wrote, the partner rows it probed -- is the same on every shard and
for every read template, so the message carries one binding per write
that the first node to need a value fills and the nodes after it read.
The template-level counters are counted by the first node whose
candidates include a template.  These tests pin that a four-node ring
then dooms what a one-node ring dooms, counting the same
template-level work, and that what was judged under one catalog is
judged again under another.
"""

from __future__ import annotations

import pytest

from repro.cache.analysis import PruneRule
from repro.cache.entry import QueryInstance
from repro.cluster.router import ClusterRouter
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

from tests.conftest import count_calls

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


def delivered_bindings(router: ClusterRouter) -> list:
    """Each message's bindings as the last subscriber saw them."""
    seen: list = []
    router.bus.subscribe(
        "after-the-nodes",
        lambda message: seen.append(
            [
                (binding.judged_under, set(binding.judged), dict(binding.allowed))
                for binding in message.bindings
            ]
        )
        or set(),
    )
    return seen


def test_each_write_is_bound_once_and_judged_by_the_first_node_to_reach_a_template(
    monkeypatch,
):
    router = ClusterRouter(["n0", "n1", "n2", "n3"], catalog=CATALOG)
    populate(router)
    seen = delivered_bindings(router)
    allowed_values = count_calls(monkeypatch, PruneRule, "allowed_values")
    router.process_write_request("/w", [write(*WRITES[0])])
    (((version, judged, allowed),),) = seen
    # Every read template shares the notes or topics table; only the
    # notes templates are candidates for an UPDATE of notes.
    assert version == router.engine.catalog_version
    assert judged == {page(text, 0).template for text in READS if "FROM notes" in text}
    # Only the first reads ``score``, so only its rule is bound: once,
    # for the four nodes.
    assert list(allowed.values()) == [frozenset({3})]
    assert allowed_values == [1]
    # Counted once per ring, by whichever node judged the template
    # first; the other three are lineage-disjoint.
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
    """Node ``a`` judges the write; a subscriber between ``a`` and ``b``
    swaps the catalog; ``b`` must judge it again, under the new one."""
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
    seen = delivered_bindings(router)
    read = READS[0]
    pages_on_both(router, read)
    before = router.engine.catalog_version
    router.process_write_request("/w", [write(*WRITES[0])])
    a, b = router.node("a").cache.stats, router.node("b").cache.stats
    assert a.pair_analyses == 1
    assert b.pair_analyses == (1 if swap else 0)
    (((version, judged, _allowed),),) = seen
    assert judged == {page(read, 0).template}
    assert version == router.engine.catalog_version == before + swap
