"""The single-copy ring: one copy of every page, on its owner.

The ring stores each page on exactly one node -- the key's ring owner,
or its first live successor when the owner is gone -- and every node
applies every bus message in sequence order.  These tests pin those
invariants over every ring size from one node to five, and pin what
each way of leaving the ring does to the keys the departed node owned:
a drained leave hands them over warm, every other leave loses them,
and in every case the next read is fresh and the departed node serves
nothing more.
"""

from collections import Counter

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cluster.node import JOINED
from repro.web.http import HttpRequest

from tests.conftest import build_notes_app

TOPICS = [f"topic-{i}" for i in range(12)]
N_NODES = [1, 2, 3, 4, 5]

#: Each way a node leaves the ring, with whether the keys it owned
#: reach their new owner still cached (only a drained leave moves them).
LEAVES = {
    "remove_node": (lambda router, name: router.remove_node(name), True),
    "remove_node_dropping": (
        lambda router, name: router.remove_node(name, drain=False),
        False,
    ),
    "fail_node": (lambda router, name: router.fail_node(name), False),
    "evict_node": (lambda router, name: router.evict_node(name), False),
    "silence_node": (lambda router, name: router.silence_node(name), False),
}


@pytest.fixture
def cluster(request):
    """(container, awc) over ``request.param`` nodes; always unweaves."""
    _db, container = build_notes_app()
    awc = AutoWebCache(n_nodes=request.param)
    awc.install(container.servlet_classes)
    try:
        yield container, awc
    finally:
        awc.uninstall()


def populate(container):
    for i, topic in enumerate(TOPICS):
        response = container.post(
            "/add",
            {"id": str(i + 1), "topic": topic, "body": f"b{i}", "score": "0"},
        )
        assert response.status == 200


def warm(container):
    for topic in TOPICS:
        assert container.get("/view_topic", {"topic": topic}).status == 200


def topic_key(topic: str) -> str:
    return HttpRequest("GET", "/view_topic", {"topic": topic}).cache_key()


def holders(awc: AutoWebCache, key: str) -> list[str]:
    return [node.name for node in awc.router.nodes() if key in node.cache.pages]


def hits_by_node(awc: AutoWebCache) -> dict[str, int]:
    return {node.name: node.cache.stats.hits for node in awc.router.nodes()}


@pytest.mark.parametrize("cluster", N_NODES, indirect=True)
class TestOneCopyPerPage:
    def test_every_page_lives_only_on_its_owner(self, cluster):
        container, awc = cluster
        populate(container)
        warm(container)
        for topic in TOPICS:
            key = topic_key(topic)
            assert holders(awc, key) == [awc.router.owner_name(key)]

    def test_the_ring_holds_each_served_page_once(self, cluster):
        container, awc = cluster
        populate(container)
        warm(container)
        warm(container)  # re-reads hit; they store nothing new
        assert len(awc.router) == len(TOPICS)
        nodes = awc.cluster_snapshot()["nodes"]
        assert sum(node["pages"] for node in nodes) == len(TOPICS)
        assert sum(node["bytes"] for node in nodes) == sum(
            entry.size
            for node in awc.router.nodes()
            for entry in node.cache.pages.entries()
        )

    def test_rereads_hit_on_the_owner_alone(self, cluster):
        container, awc = cluster
        populate(container)
        warm(container)
        before = hits_by_node(awc)
        warm(container)
        owners = Counter(awc.router.owner_name(topic_key(t)) for t in TOPICS)
        after = hits_by_node(awc)
        assert {
            name: after[name] - before[name] for name in after
        } == {name: owners[name] for name in after}

    def test_a_write_dooms_the_only_copy(self, cluster):
        container, awc = cluster
        populate(container)
        warm(container)
        key = topic_key(TOPICS[0])
        assert container.post("/score", {"id": "1", "score": "77"}).status == 200
        assert holders(awc, key) == []
        page = container.get("/view_topic", {"topic": TOPICS[0]})
        assert "(77)" in page.body
        assert holders(awc, key) == [awc.router.owner_name(key)]

    def test_every_node_applies_every_write_in_order(self, cluster):
        container, awc = cluster
        populate(container)
        warm(container)
        assert container.post("/score", {"id": "2", "score": "5"}).status == 200
        bus = awc.bus
        assert bus.seq == bus.stats.published == len(TOPICS) + 1
        assert bus.stats.delivered == bus.stats.published * len(awc.router.nodes())
        for node in awc.router.nodes():
            assert node.last_applied_seq == bus.seq
        assert [message.seq for message in bus.recent()] == list(
            range(1, bus.seq + 1)
        )


@pytest.mark.parametrize("operation", list(LEAVES))
class TestLeaving:
    """A four-node ring loses the owner of ``topic-0``."""

    @pytest.fixture
    def left(self, operation):
        """(container, awc, departed node) after the leave."""
        _db, container = build_notes_app()
        awc = AutoWebCache(n_nodes=4)
        awc.install(container.servlet_classes)
        try:
            populate(container)
            warm(container)
            victim = awc.router.node(awc.router.owner_name(topic_key(TOPICS[0])))
            leave, _warm = LEAVES[operation]
            leave(awc.router, victim.name)
            yield container, awc, victim
        finally:
            awc.uninstall()

    def test_its_keys_route_to_a_joined_survivor(self, left):
        _container, awc, victim = left
        for topic in TOPICS:
            owner = awc.router.node(awc.router.owner_name(topic_key(topic)))
            assert owner is not victim
            assert owner.state == JOINED

    def test_the_first_read_is_a_hit_only_after_a_drain(self, operation, left):
        container, awc, _victim = left
        _leave, drained = LEAVES[operation]
        successor = awc.router.node(awc.router.owner_name(topic_key(TOPICS[0])))
        hits = successor.cache.stats.hits
        lookups = successor.cache.stats.lookups
        assert container.get("/view_topic", {"topic": TOPICS[0]}).status == 200
        assert successor.cache.stats.lookups == lookups + 1
        assert successor.cache.stats.hits == hits + (1 if drained else 0)
        assert container.get("/view_topic", {"topic": TOPICS[0]}).status == 200
        assert successor.cache.stats.hits == hits + (2 if drained else 1)

    def test_a_write_after_the_leave_is_read_back(self, left):
        container, awc, _victim = left
        warm(container)  # the survivors hold every key
        assert container.post("/score", {"id": "1", "score": "88"}).status == 200
        key = topic_key(TOPICS[0])
        for node in awc.router.nodes():
            if node.state == JOINED:
                assert key not in node.cache.pages
        page = container.get("/view_topic", {"topic": TOPICS[0]})
        assert "(88)" in page.body

    def test_the_departed_node_serves_nothing_more(self, left):
        container, _awc, victim = left
        lookups = victim.cache.stats.lookups
        warm(container)
        container.post("/score", {"id": "1", "score": "3"})
        warm(container)
        assert victim.cache.stats.lookups == lookups
        assert victim.state != JOINED
