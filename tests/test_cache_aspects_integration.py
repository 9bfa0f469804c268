"""End-to-end tests: caching woven into the notes mini-application.

This is the paper's core behaviour in miniature: transparent cache
checks/inserts on reads, consistency collection at the driver level,
and precise invalidation on writes -- all without a line of caching
code in the servlets (see tests/conftest.py).
"""

import pytest

from repro.cache.analysis import InvalidationPolicy
from repro.cache.autowebcache import AutoWebCache
from repro.cache.semantics import SemanticsRegistry
from repro.errors import CacheError
from repro.web.servlet import HttpServlet

from tests.conftest import build_notes_app, node_store


def add(container, note_id, topic, body, score=0):
    response = container.post(
        "/add",
        {"id": str(note_id), "topic": topic, "body": body, "score": str(score)},
    )
    assert response.status == 200


class TestReadPath:
    def test_miss_then_hit_same_body(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "hello")
        first = container.get("/view_topic", {"topic": "a"})
        second = container.get("/view_topic", {"topic": "a"})
        assert first.body == second.body
        assert awc.stats.misses_cold == 1
        assert awc.stats.hits == 1

    def test_different_params_different_entries(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        add(container, 2, "b", "y")
        container.get("/view_topic", {"topic": "a"})
        container.get("/view_topic", {"topic": "b"})
        assert len(awc.cache) == 2

    def test_error_pages_not_cached(self, cached_notes_app):
        db, container, awc = cached_notes_app
        response = container.get("/view_note", {})  # missing id -> 500
        assert response.status == 500
        assert len(awc.cache) == 0

    def test_served_page_bypasses_servlet(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        queries_before = db.stats.queries
        container.get("/view_topic", {"topic": "a"})
        assert db.stats.queries == queries_before  # no SQL on a hit


class TestWritePath:
    def test_related_write_invalidates(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "old")
        container.get("/view_topic", {"topic": "a"})
        add(container, 2, "a", "new")
        page = container.get("/view_topic", {"topic": "a"})
        assert "new" in page.body
        assert awc.stats.misses_invalidation == 1

    def test_unrelated_write_preserves_entry(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        add(container, 2, "b", "y")  # different topic
        container.get("/view_topic", {"topic": "a"})
        assert awc.stats.hits == 1
        assert awc.stats.misses_invalidation == 0

    def test_update_invalidates_only_affected_note(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        add(container, 2, "a", "y")
        container.get("/view_note", {"id": "1"})
        container.get("/view_note", {"id": "2"})
        container.post("/score", {"id": "1", "score": "9"})
        page1 = container.get("/view_note", {"id": "1"})
        assert "|9" in page1.body
        container.get("/view_note", {"id": "2"})
        assert awc.stats.hits == 1  # note 2 survived
        assert awc.stats.misses_invalidation == 1  # note 1 did not

    def test_delete_invalidates_topic_page(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        container.post("/delete", {"id": "1"})
        page = container.get("/view_topic", {"topic": "a"})
        assert "x" not in page.body
        assert awc.stats.misses_invalidation == 1

    def test_delete_in_other_topic_preserves_entry(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        add(container, 2, "b", "y")
        container.get("/view_topic", {"topic": "a"})
        container.post("/delete", {"id": "2"})  # in topic b
        container.get("/view_topic", {"topic": "a"})
        # The DELETE's pre-image (topic of note 2) proves disjointness.
        assert awc.stats.hits == 1

    def test_dooms_attributed_to_write_template(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        container.post("/score", {"id": "1", "score": "9"})
        dooms = awc.stats.snapshot()["cluster"]["dooms_by_template"]
        assert sum(dooms.values()) >= 1
        assert any("UPDATE notes" in template for template in dooms)


class NewestNoteServlet(HttpServlet):
    """Read handler that projects only the generated key."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request, response) -> None:
        result = self._connection.create_statement().execute_query(
            "SELECT MAX(id) FROM notes"
        )
        response.write(f"<p>newest {result.scalar()}</p>")


class PostNoteServlet(HttpServlet):
    """Write handler that leaves the key to the table."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request, response) -> None:
        self._connection.create_statement().execute_update(
            "INSERT INTO notes (topic, body, score) VALUES (?, ?, 0)",
            (request.get_parameter("topic"), request.get_parameter("body")),
        )
        response.write("posted")


@pytest.mark.parametrize("policy", list(InvalidationPolicy))
def test_an_insert_dooms_a_page_that_read_only_its_generated_key(policy):
    """An INSERT writes every column of its table, the generated key it
    does not list included: a page showing ``MAX(id)`` must not be
    served after a new row, at every rung."""
    db, container = build_notes_app()
    connection = container.servlet_for("/add")._connection
    container.register("/newest", NewestNoteServlet(connection))
    container.register("/post", PostNoteServlet(connection))
    awc = AutoWebCache(policy=policy)
    awc.install(container.servlet_classes)
    try:
        add(container, 1, "a", "x")
        assert "newest 1" in container.get("/newest").body
        container.post("/post", {"topic": "b", "body": "y"})
        assert "newest 2" in container.get("/newest").body
        assert awc.stats.misses_invalidation == 1
    finally:
        awc.uninstall()


class TestPolicies:
    def test_column_only_over_invalidates(self):
        db, container = build_notes_app()
        awc = AutoWebCache(policy=InvalidationPolicy.COLUMN_ONLY)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            container.get("/view_topic", {"topic": "a"})
            add(container, 2, "b", "y")  # unrelated topic
            container.get("/view_topic", {"topic": "a"})
            assert awc.stats.misses_invalidation == 1  # false invalidation
        finally:
            awc.uninstall()

    def test_extra_query_issues_pre_image_queries(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        before = awc.jdbc_aspect.extra_queries
        container.post("/score", {"id": "1", "score": "5"})
        assert awc.jdbc_aspect.extra_queries == before + 1

    def test_where_match_skips_pre_image_queries(self):
        db, container = build_notes_app()
        awc = AutoWebCache(policy=InvalidationPolicy.WHERE_MATCH)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            container.post("/score", {"id": "1", "score": "5"})
            assert awc.jdbc_aspect.extra_queries == 0
        finally:
            awc.uninstall()


class TestSemanticsIntegration:
    def test_uncacheable_uri_never_cached(self):
        db, container = build_notes_app()
        semantics = SemanticsRegistry().mark_uncacheable("/view_topic")
        awc = AutoWebCache(semantics=semantics)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            container.get("/view_topic", {"topic": "a"})
            container.get("/view_topic", {"topic": "a"})
            assert awc.stats.uncacheable == 2
            assert len(awc.cache) == 0
        finally:
            awc.uninstall()

    def test_ttl_window_survives_writes_then_expires(self):
        db, container = build_notes_app()
        clock = {"now": 0.0}
        semantics = SemanticsRegistry().set_ttl_window("/view_topic", 30.0)
        awc = AutoWebCache(semantics=semantics, clock=lambda: clock["now"])
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            container.get("/view_topic", {"topic": "a"})
            add(container, 2, "a", "fresh")  # would normally invalidate
            stale = container.get("/view_topic", {"topic": "a"})
            assert "fresh" not in stale.body  # stale within the window
            assert awc.stats.semantic_hits == 1
            clock["now"] = 31.0
            current = container.get("/view_topic", {"topic": "a"})
            assert "fresh" in current.body
            assert awc.stats.misses_expired == 1
        finally:
            awc.uninstall()


class TestForcedMiss:
    def test_forced_miss_mode_never_hits(self):
        db, container = build_notes_app()
        awc = AutoWebCache(forced_miss=True)
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            container.get("/view_topic", {"topic": "a"})
            container.get("/view_topic", {"topic": "a"})
            assert awc.stats.hits == 0
            assert awc.stats.misses_cold == 2
        finally:
            awc.uninstall()


class TestLifecycle:
    def test_double_install_rejected(self, cached_notes_app):
        _db, _container, awc = cached_notes_app
        with pytest.raises(CacheError):
            awc.install([])

    def test_uninstall_restores_no_cache_behaviour(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        awc.uninstall()
        lookups = awc.stats.lookups
        container.get("/view_topic", {"topic": "a"})
        assert awc.stats.lookups == lookups  # cache no longer consulted
        awc.uninstall()  # idempotent

    def test_context_manager(self):
        db, container = build_notes_app()
        with AutoWebCache() as awc:
            awc.install(container.servlet_classes)
            assert awc.installed
        assert not awc.installed

    def test_weave_report_covers_servlets_and_driver(self, cached_notes_app):
        _db, _container, awc = cached_notes_app
        classes = {jp.class_name for jp in awc.weave_report.join_points}
        assert "Statement" in classes
        assert "ViewTopicServlet" in classes
        assert "AddNoteServlet" in classes

    def test_external_invalidate_key(self, cached_notes_app):
        db, container, awc = cached_notes_app
        add(container, 1, "a", "x")
        container.get("/view_topic", {"topic": "a"})
        key = "/view_topic?topic=a"
        assert awc.cache.invalidate_key(key)
        assert not awc.cache.invalidate_key(key)


class TestCatalogMirror:
    """The woven driver mirrors the database's schemas into the analysis
    catalog -- when the schema epoch moves, not once per statement."""

    @staticmethod
    def count_mirrors(monkeypatch) -> list[int]:
        from repro.sql.lineage import Catalog

        built = [0]
        original = Catalog.from_database.__func__

        def counted(cls, database):
            built[0] += 1
            return original(cls, database)

        monkeypatch.setattr(Catalog, "from_database", classmethod(counted))
        return built

    def test_mirrored_once_then_again_only_after_ddl(
        self, cached_notes_app, monkeypatch
    ):
        from repro.db import Column, ColumnType, TableSchema

        db, container, awc = cached_notes_app
        built = self.count_mirrors(monkeypatch)
        engine = node_store(awc).engine
        assert engine.catalog is None
        add(container, 1, "a", "x")
        assert built == [1]
        assert engine.catalog.columns_of("notes") == {"id", "topic", "body", "score"}
        for note_id in (2, 3, 4):
            container.get("/view_note", {"id": "1"})
            add(container, note_id, "a", "y")
        assert built == [1]
        # Same table count, different schema: drop + create moves the
        # epoch where the old (identity, table count) guard saw nothing.
        db.drop_table("topics")
        db.create_table(
            TableSchema("labels", [Column("id", ColumnType.INT)], primary_key="id")
        )
        container.get("/view_topic", {"topic": "a"})
        assert built == [2]
        assert engine.catalog.columns_of("labels") == {"id"}
        assert engine.catalog.columns_of("topics") is None

    def test_a_ring_compares_once_and_fans_out_only_when_the_epoch_moved(
        self, monkeypatch
    ):
        from repro.cache.api import Cache

        db, container = build_notes_app()
        awc = AutoWebCache(n_nodes=3)
        awc.install(container.servlet_classes)
        try:
            node_syncs = [0]
            original = Cache.sync_catalog

            def counted(self, database, catalog):
                node_syncs[0] += 1
                return original(self, database, catalog)

            monkeypatch.setattr(Cache, "sync_catalog", counted)
            # Three nodes plus the router's config donor, whose engine
            # places the row witnesses the front end captures.
            add(container, 1, "a", "x")
            assert node_syncs == [4]
            for note_id in (2, 3, 4):
                container.get("/view_note", {"id": "1"})
                add(container, note_id, "a", "y")
            assert node_syncs == [4]
            # A node that joins later has no catalog yet: the next
            # statement mirrors it (the others compare and return).
            joined = awc.router.add_node("late")
            assert joined.cache.engine.catalog is None
            container.get("/view_topic", {"topic": "a"})
            assert node_syncs == [9]
            assert all(
                node.cache.engine.catalog.columns_of("notes") is not None
                for node in awc.router.nodes()
            )
        finally:
            awc.uninstall()
