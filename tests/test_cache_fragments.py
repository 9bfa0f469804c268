"""Fragment (ESI-style) caching: per-fragment entries, dependencies,
containment dooming, holes, and assembly hygiene.

The servlets below declare fragments/holes over the notes schema
(tests/conftest.py); the fragment aspect is woven by AutoWebCache with
zero caching code in the servlets, exactly like the page path.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.fragments import FragmentContainment, fragment_key
from repro.apps.html import fragment, hole
from repro.db import connect
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import (
    AddNoteServlet,
    ScoreNoteServlet,
    make_notes_db,
    node_store,
)

TOPIC_FRAGMENT = "notes/topic"
PAGE_KEY = "/topic_page?topic=a"
FRAG_KEY = fragment_key(TOPIC_FRAGMENT, {"topic": "a"})


class TopicPageServlet(HttpServlet):
    """A page embedding the topic listing as a declared fragment."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        topic = request.get_parameter("topic")
        response.write(f"<h1>{topic}</h1>")
        fragment(
            response,
            TOPIC_FRAGMENT,
            {"topic": topic},
            lambda: self._write_notes(response, topic),
        )
        response.write("<footer/>")

    def _write_notes(self, response, topic: str) -> None:
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT id, body, score FROM notes WHERE topic = ? ORDER BY id",
            (topic,),
        )
        while result.next():
            response.write(f"<p>{result.get('id')}:{result.get('body')}</p>")


class StampedTopicServlet(HttpServlet):
    """Hidden state (a per-request stamp) as a hole beside a fragment."""

    def __init__(self, connection) -> None:
        self._connection = connection
        self._ticks = itertools.count()

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        topic = request.get_parameter("topic")
        hole(
            response,
            "stamp",
            lambda: response.write(f"<stamp>{next(self._ticks)}</stamp>"),
        )
        fragment(
            response,
            TOPIC_FRAGMENT,
            {"topic": topic},
            lambda: self._write_notes(response, topic),
        )

    def _write_notes(self, response, topic: str) -> None:
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT id, body, score FROM notes WHERE topic = ? ORDER BY id",
            (topic,),
        )
        while result.next():
            response.write(f"<p>{result.get('id')}:{result.get('body')}</p>")


class CookieFragmentServlet(HttpServlet):
    """Sets a per-request cookie and header while filling a fragment."""

    def __init__(self, connection) -> None:
        self._connection = connection
        self._serial = itertools.count()

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        serial = next(self._serial)
        hole(
            response,
            "visit",
            lambda: self._stamp_request(response, serial),
        )
        fragment(
            response,
            "notes/greeting",
            {},
            lambda: self._write_greeting(response),
        )

    def _stamp_request(self, response, serial: int) -> None:
        response.add_cookie("visit", str(serial))
        response.set_header("X-Request-Serial", str(serial))
        response.write(f"<visit>{serial}</visit>")

    def _write_greeting(self, response) -> None:
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT name FROM topics WHERE id = ?", (1,)
        )
        name = result.scalar() if result.next() else "world"
        response.write(f"<p>hello {name}</p>")


class DigestServlet(HttpServlet):
    """Nested fragments: a digest fragment embedding per-topic ones."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        response.write("<digest>")
        fragment(
            response, "notes/digest", {}, lambda: self._write_digest(response)
        )
        response.write("</digest>")

    def _write_digest(self, response) -> None:
        for topic in ("a", "b"):
            fragment(
                response,
                TOPIC_FRAGMENT,
                {"topic": topic},
                lambda topic=topic: self._write_notes(response, topic),
            )

    def _write_notes(self, response, topic: str) -> None:
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT id, body FROM notes WHERE topic = ? ORDER BY id",
            (topic,),
        )
        while result.next():
            response.write(f"<p>{topic}:{result.get('id')}</p>")


def build_fragment_app():
    db = make_notes_db()
    connection = connect(db)
    container = ServletContainer()
    container.register("/topic_page", TopicPageServlet(connection))
    container.register("/stamped", StampedTopicServlet(connection))
    container.register("/cookie_page", CookieFragmentServlet(connection))
    container.register("/digest", DigestServlet(connection))
    container.register("/add", AddNoteServlet(connection))
    container.register("/score", ScoreNoteServlet(connection))
    return db, container


def add(container, note_id, topic, body, score=0):
    response = container.post(
        "/add",
        {"id": str(note_id), "topic": topic, "body": body, "score": str(score)},
    )
    assert response.status == 200


def install(awc, container):
    awc.install(container.servlet_classes)
    return awc


class TestFragmentEntries:
    def test_page_and_fragment_both_cached(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            container.get("/topic_page", {"topic": "a"})
            assert PAGE_KEY in node_store(awc).pages
            assert FRAG_KEY in node_store(awc).pages
            page = node_store(awc).pages.peek(PAGE_KEY)
            assert awc.router.fragments._fragments_of[PAGE_KEY] == {FRAG_KEY}
            # The fragment's dependencies belong to the fragment entry,
            # not the page's own read set.
            frag = node_store(awc).pages.peek(FRAG_KEY)
            assert len(frag.dependencies) == 1
            assert page.dependencies == ()
        finally:
            awc.uninstall()

    def test_repeat_request_hits_the_whole_page(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            first = container.get("/topic_page", {"topic": "a"})
            second = container.get("/topic_page", {"topic": "a"})
            assert first.body == second.body
            assert awc.stats.hits == 1  # the page; fragment untouched
        finally:
            awc.uninstall()

    def test_fragment_hit_spares_sql_on_page_rebuild(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            first = container.get("/topic_page", {"topic": "a"})
            # Doom only the page: its body is gone but the fragment
            # entry survives (containment edges point upward only).
            awc.cache.invalidate_key(PAGE_KEY)
            assert FRAG_KEY in node_store(awc).pages
            queries_before = db.stats.queries
            rebuilt = container.get("/topic_page", {"topic": "a"})
            assert rebuilt.body == first.body
            assert db.stats.queries == queries_before  # fragment hit
            # The rebuild re-cached the page with its containment edge.
            assert PAGE_KEY in node_store(awc).pages
            assert awc.router.fragments._fragments_of[PAGE_KEY] == {FRAG_KEY}
        finally:
            awc.uninstall()

    def test_write_dooms_fragment_and_containing_page(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "old")
            container.get("/topic_page", {"topic": "a"})
            add(container, 2, "a", "new")
            assert FRAG_KEY not in node_store(awc).pages
            assert PAGE_KEY not in node_store(awc).pages
            page = container.get("/topic_page", {"topic": "a"})
            assert "new" in page.body
        finally:
            awc.uninstall()

    def test_unrelated_write_preserves_fragment_and_page(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            container.get("/topic_page", {"topic": "a"})
            add(container, 2, "b", "y")
            container.get("/topic_page", {"topic": "a"})
            assert awc.stats.hits == 1
            assert awc.stats.misses_invalidation == 0
        finally:
            awc.uninstall()


class TestHoles:
    def test_hole_page_not_cached_but_fragment_is(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            first = container.get("/stamped", {"topic": "a"})
            second = container.get("/stamped", {"topic": "a"})
            # The hole recomputes: the two bodies differ in the stamp...
            assert "<stamp>0</stamp>" in first.body
            assert "<stamp>1</stamp>" in second.body
            # ...while the fragment text served from cache.
            assert awc.stats.hits == 1
            assert awc.stats.hole_skips == 2  # page skipped twice
            assert "/stamped?topic=a" not in node_store(awc).pages
            assert FRAG_KEY in node_store(awc).pages
        finally:
            awc.uninstall()

    def test_fragment_shared_between_pages(self):
        """The same fragment fills once and serves both the cacheable
        page and the hole-bearing one."""
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            container.get("/topic_page", {"topic": "a"})
            queries_before = db.stats.queries
            response = container.get("/stamped", {"topic": "a"})
            assert "<p>1:x</p>" in response.body
            assert db.stats.queries == queries_before
        finally:
            awc.uninstall()


class TestAssemblyHygiene:
    def test_cached_fragment_does_not_leak_headers_or_cookies(self):
        """PR-1's header rule at fragment granularity: per-request
        cookies/headers set while *filling* a fragment must not replay
        into later responses assembled from the cached text."""
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            db.update("INSERT INTO topics (id, name) VALUES (?, ?)", (1, "t"))
            first = container.get("/cookie_page")
            second = container.get("/cookie_page")
            assert "hello t" in second.body  # fragment text served
            assert awc.stats.hits == 1
            # Each response carries only its *own* request's stamp.
            assert first.cookies == {"visit": "0"}
            assert second.cookies == {"visit": "1"}
            assert first.headers["X-Request-Serial"] == "0"
            assert second.headers["X-Request-Serial"] == "1"
        finally:
            awc.uninstall()

    def test_wsgi_content_length_tracks_assembled_body(self):
        """Content-Length is derived from the final assembled body, so
        hole substitution of a different length stays consistent."""
        from repro.web.wsgi import WsgiAdapter

        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        adapter = WsgiAdapter(container)
        try:
            add(container, 1, "a", "x")
            import io

            def call():
                captured = {}

                def start_response(status, headers):
                    captured["headers"] = dict(headers)

                chunks = adapter(
                    {
                        "REQUEST_METHOD": "GET",
                        "PATH_INFO": "/stamped",
                        "QUERY_STRING": "topic=a",
                        "wsgi.input": io.BytesIO(b""),
                    },
                    start_response,
                )
                captured["body"] = b"".join(chunks)
                return captured

            responses = [call() for _ in range(11)]
            for captured in responses:
                declared = int(captured["headers"]["Content-Length"])
                assert declared == len(captured["body"])
            # The stamp grew from 1 to 2 digits across the run, so the
            # assertion above covered two distinct assembled lengths.
            lengths = {len(c["body"]) for c in responses}
            assert len(lengths) == 2
        finally:
            awc.uninstall()


class TestNestedFragments:
    def test_nested_fragments_cache_at_every_level(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            add(container, 2, "b", "y")
            container.get("/digest")
            digest_key = fragment_key("notes/digest", {})
            leaf_a = fragment_key(TOPIC_FRAGMENT, {"topic": "a"})
            leaf_b = fragment_key(TOPIC_FRAGMENT, {"topic": "b"})
            for key in ("/digest", digest_key, leaf_a, leaf_b):
                assert key in node_store(awc).pages, key
            # The digest entry embeds the leaves; the page embeds the
            # digest (direct edges only -- the closure walks the rest).
            edges = awc.router.fragments._fragments_of
            assert edges[digest_key] == {leaf_a, leaf_b}
            assert edges["/digest"] == {digest_key}
            # The digest's dependencies absorb the leaves' (a hit must
            # hand the parent the full transitive guard set)...
            assert len(node_store(awc).pages.peek(digest_key).dependencies) == 2
            # ...while the page entry stays lean.
            assert node_store(awc).pages.peek("/digest").dependencies == ()
        finally:
            awc.uninstall()

    def test_leaf_doom_climbs_the_containment_closure(self):
        db, container = build_fragment_app()
        awc = install(AutoWebCache(), container)
        try:
            add(container, 1, "a", "x")
            add(container, 2, "b", "y")
            container.get("/digest")
            add(container, 3, "a", "z")  # dooms leaf a transitively
            digest_key = fragment_key("notes/digest", {})
            leaf_a = fragment_key(TOPIC_FRAGMENT, {"topic": "a"})
            leaf_b = fragment_key(TOPIC_FRAGMENT, {"topic": "b"})
            assert leaf_a not in node_store(awc).pages
            assert digest_key not in node_store(awc).pages
            assert "/digest" not in node_store(awc).pages
            assert leaf_b in node_store(awc).pages  # untouched sibling
            rebuilt = container.get("/digest")
            assert "<p>a:3</p>" in rebuilt.body
        finally:
            awc.uninstall()


class TestContainmentTable:
    def test_containing_is_transitive_and_excludes_inputs(self):
        table = FragmentContainment()
        table.add("outer", ["leaf"])
        table.add("page", ["outer"])
        assert table.containing({"leaf"}) == {"outer", "page"}
        assert table.containing({"outer"}) == {"page"}

    def test_forget_drops_edges(self):
        table = FragmentContainment()
        table.add("page", ["leaf"])
        table.forget("page")
        assert table.containing({"leaf"}) == set()

    def test_clear_drops_the_edges_with_the_entries(self):
        """An edge outliving ``clear`` would doom a fresh computation of
        its container when the fragment is next invalidated, and edges
        would pile up clear after clear."""
        from repro.cluster.router import ClusterRouter

        router = ClusterRouter(["n0"])
        for i in range(3):
            router.insert_key(f"frag://f?i={i}", "text", [])
            router.insert_key(f"/page?i={i}", "<text>", [], fragments=(f"frag://f?i={i}",))
            assert len(router.fragments) == 1
            router.clear()
            assert len(router) == 0
            assert len(router.fragments) == 0
        window = router.begin_window("/page?i=2")
        router.invalidate_key("frag://f?i=2")
        assert not window.stale
        router.end_window(window)


class TestClusterFragments:
    def test_fragment_doom_crosses_shards(self):
        """The fragment and its containing page hash to arbitrary
        nodes; a write must doom both cluster-wide."""
        db, container = build_fragment_app()
        awc = AutoWebCache(n_nodes=4)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "old")
            container.get("/topic_page", {"topic": "a"})
            # Both entries exist somewhere in the cluster, and the
            # router-level containment table has the edge.
            assert awc.router.fragments.containing({FRAG_KEY}) == {PAGE_KEY}
            add(container, 2, "a", "new")
            for node in awc.router.nodes():
                assert PAGE_KEY not in node.cache.pages
                assert FRAG_KEY not in node.cache.pages
            page = container.get("/topic_page", {"topic": "a"})
            assert "new" in page.body
        finally:
            awc.uninstall()

    def test_cluster_hole_page_fragment_hits(self):
        db, container = build_fragment_app()
        awc = AutoWebCache(n_nodes=4)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            first = container.get("/stamped", {"topic": "a"})
            second = container.get("/stamped", {"topic": "a"})
            assert "<stamp>0</stamp>" in first.body
            assert "<stamp>1</stamp>" in second.body
            assert awc.stats.hits == 1
            assert awc.stats.hole_skips == 2
        finally:
            awc.uninstall()

    def test_cluster_nested_doom_crosses_shards(self):
        db, container = build_fragment_app()
        awc = AutoWebCache(n_nodes=4)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            add(container, 2, "b", "y")
            container.get("/digest")
            add(container, 3, "a", "z")
            digest_key = fragment_key("notes/digest", {})
            leaf_b = fragment_key(TOPIC_FRAGMENT, {"topic": "b"})
            present = set()
            for node in awc.router.nodes():
                present.update(node.cache.pages.keys())
            assert digest_key not in present
            assert "/digest" not in present
            assert leaf_b in present
            rebuilt = container.get("/digest")
            assert "<p>a:3</p>" in rebuilt.body
        finally:
            awc.uninstall()


def build_bounded_app():
    """The fragment app plus a plain page: a third key whose insert
    evicts without embedding anything."""
    from tests.conftest import ViewNoteServlet

    db, container = build_fragment_app()
    container.register("/view_note", ViewNoteServlet(connect(db)))
    return db, container


class TestEvictionClimbsContainment:
    """A container registers only its outside-fragment reads, so a
    fragment that leaves the store takes its containers with it: after
    it is gone no write could doom their copy of its text."""

    def test_facade_sequence_from_the_issue(self):
        from repro.cache.entry import QueryInstance
        from repro.cluster.router import ClusterRouter
        from repro.sql.template import templateize

        router = ClusterRouter(
            ["n0"], replacement="lru", capacity=2
        )
        (node,) = router.nodes()
        read = QueryInstance(*templateize("SELECT name FROM categories WHERE id = ?", (1,)))
        router.insert_key("frag://cat?id=1", "old name", [read])
        router.insert_key(
            "/page?x=1", "<p>old name</p>", [],
            fragments=("frag://cat?id=1",), guard_reads=(read,),
        )
        assert router.check_key("/page?x=1", "/page") is not None
        # LRU evicts the fragment (the page was just touched) ...
        router.insert_key("/other?y=1", "other", [])
        assert "frag://cat?id=1" not in node.cache.pages
        # ... and the page, which nothing could doom any more, with it.
        assert "/page?x=1" not in node.cache.pages
        assert router.stats.invalidated_pages == 1
        write = QueryInstance(
            *templateize("UPDATE categories SET name = ? WHERE id = ?", ("new", 1))
        )
        router.process_write_request("/write", [write])
        assert router.check_key("/page?x=1", "/page") is None
        # Nothing about the departed keys lingers in the edge tables.
        assert len(router.fragments) == 0 and router.fragments._pages_of == {}

    def test_a_write_settles_an_eviction_an_insert_left_pending(self, monkeypatch):
        """An insert's evictions are settled once it is out of the node
        lock.  A write landing in that gap must still doom the pages
        built from the evicted fragment before it returns."""
        from repro.cache.entry import QueryInstance
        from repro.cluster.router import ClusterRouter
        from repro.sql.template import templateize

        router = ClusterRouter(
            ["n0"], replacement="lru", capacity=2
        )
        (node,) = router.nodes()
        read = QueryInstance(*templateize("SELECT name FROM categories WHERE id = ?", (1,)))
        router.insert_key("frag://cat?id=1", "old name", [read])
        router.insert_key(
            "/page?x=1", "<p>old name</p>", [],
            fragments=("frag://cat?id=1",), guard_reads=(read,),
        )
        assert router.check_key("/page?x=1", "/page") is not None
        settle = ClusterRouter._settle_evictions
        monkeypatch.setattr(ClusterRouter, "_settle_evictions", lambda self: None)
        router.insert_key("/other?y=1", "other", [])  # evicts the fragment
        monkeypatch.setattr(ClusterRouter, "_settle_evictions", settle)
        assert "frag://cat?id=1" not in node.cache.pages
        assert "/page?x=1" in node.cache.pages  # not settled yet
        write = QueryInstance(
            *templateize("UPDATE categories SET name = ? WHERE id = ?", ("new", 1))
        )
        router.process_write_request("/write", [write])
        assert "/page?x=1" not in node.cache.pages

    def test_woven_page_is_not_served_past_its_evicted_fragment(self):
        db, container = build_bounded_app()
        awc = install(AutoWebCache(replacement="lru", capacity=2), container)
        try:
            add(container, 1, "a", "old")
            container.get("/topic_page", {"topic": "a"})
            assert container.get("/topic_page", {"topic": "a"}).body.count("old") == 1
            assert awc.stats.hits == 1  # the page is now the recent entry
            container.get("/view_note", {"id": "1"})  # evicts the fragment
            assert FRAG_KEY not in node_store(awc).pages
            add(container, 2, "a", "new")
            assert "new" in container.get("/topic_page", {"topic": "a"}).body
        finally:
            awc.uninstall()

    def test_ring_page_is_not_served_past_its_evicted_fragment(self):
        """The page and its fragment hash to arbitrary shards; whichever
        node evicts the fragment, the router's cross-shard table finds
        the page."""
        db, container = build_bounded_app()
        awc = AutoWebCache(n_nodes=2, replacement="lru", capacity=2)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "old")
            for note_id in range(10, 22):
                add(container, note_id, "z", "filler")
            container.get("/topic_page", {"topic": "a"})
            evicted = False
            for note_id in range(10, 22):
                # Keep the page the most recent entry of its shard while
                # plain pages push the (never re-read) fragment out.
                container.get("/topic_page", {"topic": "a"})
                container.get("/view_note", {"id": str(note_id)})
                evicted = evicted or not any(
                    FRAG_KEY in node.cache.pages for node in awc.router.nodes()
                )
            assert evicted
            add(container, 2, "a", "new")
            assert "new" in container.get("/topic_page", {"topic": "a"}).body
        finally:
            awc.uninstall()

    def test_a_crashed_shard_takes_the_pages_built_from_its_fragments(self):
        db, container = build_fragment_app()
        awc = AutoWebCache(n_nodes=4)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "old")
            container.get("/topic_page", {"topic": "a"})
            holder = next(
                node.name
                for node in awc.router.nodes()
                if FRAG_KEY in node.cache.pages
            )
            awc.router.fail_node(holder)
            add(container, 2, "a", "new")
            assert "new" in container.get("/topic_page", {"topic": "a"}).body
        finally:
            awc.uninstall()

    def test_expired_fragment_dooms_its_containers_when_it_is_found_expired(self):
        from repro.cache.semantics import SemanticsRegistry

        now = [1000.0]
        db, container = build_fragment_app()
        semantics = SemanticsRegistry().set_ttl_window("frag://notes/topic", 5.0)
        awc = install(
            AutoWebCache(semantics=semantics, clock=lambda: now[0]), container
        )
        try:
            add(container, 1, "a", "old")
            container.get("/topic_page", {"topic": "a"})
            add(container, 2, "a", "new")
            now[0] += 60.0
            # Another page probes the fragment, finds it expired and
            # re-renders it: the first page's copy of the old text goes.
            assert "new" in container.get("/stamped", {"topic": "a"}).body
            assert PAGE_KEY not in node_store(awc).pages
            assert "new" in container.get("/topic_page", {"topic": "a"}).body
        finally:
            awc.uninstall()



#: One node and a 2-node ring, built with the same keywords.
FACADES = {
    "node": AutoWebCache,
    "ring": lambda **options: AutoWebCache(n_nodes=2, **options),
}


def resident_entry(awc, key):
    caches = [node.cache for node in awc.router.nodes()]
    return next(cache.pages.peek(key) for cache in caches if key in cache.pages)


class TestNoEntryOutlivesWhatItEmbeds:
    """A container is stored only while every fragment it embeds is
    resident, and expires no later than the earliest of them."""

    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_a_fragment_evicted_while_its_container_renders(self, facade):
        db, container = build_fragment_app()
        awc = install(FACADES[facade](replacement="lru", capacity=2), container)
        try:
            add(container, 1, "a", "x")
            # Two topic fragments, the digest fragment and the page:
            # four inserts into two slots, so the digest's own insert
            # evicts a topic it embeds, and the page embeds a digest
            # that is already gone.
            assert container.get("/digest").body == "<digest><p>a:1</p></digest>"
            add(container, 2, "a", "y")
            assert (
                container.get("/digest").body
                == "<digest><p>a:1</p><p>a:2</p></digest>"
            )
            assert awc.stats.stale_inserts >= 1
        finally:
            awc.uninstall()

    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_a_page_expires_with_the_ttl_fragment_it_embeds(self, facade):
        now = [1000.0]
        db, container = build_fragment_app()
        awc = FACADES[facade](clock=lambda: now[0])
        awc.semantics.set_ttl_window("frag://notes/topic", 5)
        install(awc, container)
        try:
            add(container, 1, "a", "old")
            assert "1:old" in container.get("/topic_page", {"topic": "a"}).body
            page = resident_entry(awc, PAGE_KEY)
            assert page.expires_at == 1005.0 and not page.semantic
            db.execute("UPDATE notes SET body = 'new'")  # past the woven driver
            now[0] += 60.0
            assert "1:new" in container.get("/topic_page", {"topic": "a"}).body
        finally:
            awc.uninstall()


class TestBookkeepingIsBoundedByResidency:
    def test_unique_keys_through_a_small_store(self, monkeypatch):
        import repro.cache.page_cache as page_cache
        from repro.cluster.router import ClusterRouter

        monkeypatch.setattr(page_cache, "_GONE_LIMIT", 4096)
        router = ClusterRouter(
            ["n0"], replacement="lru", capacity=64
        )
        (node,) = router.nodes()
        cache = node.cache
        for i in range(25_000):  # 50 000 unique keys
            router.insert_key(f"frag://f?i={i}", "text", [])
            router.insert_key(f"/p?i={i}", "<text>", [], fragments=(f"frag://f?i={i}",))
        assert len(cache.pages) == 64
        gone = cache.pages._gone
        assert len(gone) == 4096
        # The oldest reasons were dropped (those keys read as cold), the
        # recent ones kept.
        assert cache.pages.lookup("/p?i=0", 0.0) == (None, "cold")
        assert cache.pages.lookup("/p?i=24900", 0.0)[1] in ("capacity", "invalidation")
        table = router.fragments
        assert len(table._fragments_of) <= 64 and len(table._pages_of) <= 64
        assert set(table._fragments_of) <= set(cache.pages.keys())

    def test_ring_tables_follow_the_shards(self):
        from repro.cluster.router import ClusterRouter

        router = ClusterRouter(
            ["n0", "n1"], replacement="lru", capacity=16
        )
        for i in range(2_000):
            router.insert_key(f"frag://f?i={i}", "text", [])
            router.insert_key(
                f"/p?i={i}", "<text>", [], fragments=(f"frag://f?i={i}",)
            )
        resident = {key for node in router.nodes() for key in node.cache.pages.keys()}
        assert 0 < len(resident) <= 32
        table = router.fragments
        assert set(table._fragments_of) <= resident
        assert len(table._pages_of) <= 32
        # Every resident page still has its fragment: evicting one
        # doomed the other.
        for key in resident:
            if key.startswith("/p"):
                assert key.replace("/p", "frag://f") in resident
