"""Trigger-based external invalidation tests (Section 8's escape hatch)."""

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.external import TriggerInvalidationBridge
from repro.db import Column, ColumnType, Database, TableSchema
from repro.db.triggers import TriggerSet, WriteEvent

from tests.conftest import build_notes_app


class TestTriggerSet:
    def event(self, table="t", kind="update"):
        return WriteEvent(table=table, kind=kind, sql="UPDATE t SET a = 1",
                          params=(), affected=1)

    def test_table_triggers_fire(self):
        triggers = TriggerSet()
        seen = []
        triggers.on_table("t", seen.append)
        triggers.fire(self.event(table="t"))
        triggers.fire(self.event(table="u"))
        assert len(seen) == 1
        assert triggers.fired == 1

    def test_global_triggers_fire_for_all_tables(self):
        triggers = TriggerSet()
        seen = []
        triggers.on_any(seen.append)
        triggers.fire(self.event(table="t"))
        triggers.fire(self.event(table="u"))
        assert len(seen) == 2

    def test_empty_property(self):
        triggers = TriggerSet()
        assert triggers.empty
        triggers.on_any(lambda e: None)
        assert not triggers.empty


class TestDatabaseTriggers:
    def make_db(self):
        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [Column("id", ColumnType.INT), Column("v", ColumnType.INT)],
                primary_key="id",
            )
        )
        db.update("INSERT INTO t (id, v) VALUES (1, 10)")
        return db

    def test_insert_update_delete_events(self):
        db = self.make_db()
        events = []
        db.triggers.on_any(events.append)
        db.update("INSERT INTO t (id, v) VALUES (2, 20)")
        db.update("UPDATE t SET v = 11 WHERE id = 1")
        db.update("DELETE FROM t WHERE id = 2")
        kinds = [(e.kind, e.table, e.affected) for e in events]
        assert kinds == [("insert", "t", 1), ("update", "t", 1), ("delete", "t", 1)]

    def test_pre_image_captured_for_update_and_delete(self):
        db = self.make_db()
        events = []
        db.triggers.on_any(events.append)
        db.update("UPDATE t SET v = 99 WHERE id = 1")
        assert events[0].pre_image == ({"id": 1, "v": 10},)
        db.update("DELETE FROM t WHERE id = 1")
        assert events[1].pre_image == ({"id": 1, "v": 99},)

    def test_insert_carries_the_row_it_stored(self):
        db = self.make_db()
        events = []
        db.triggers.on_any(events.append)
        db.update("INSERT INTO t (id, v) VALUES (5, 50)")
        assert events[0].pre_image == ({"id": 5, "v": 50},)

    def test_no_triggers_no_overhead(self):
        db = self.make_db()
        queries_before = db.stats.queries
        db.update("UPDATE t SET v = 2 WHERE id = 1")
        # No pre-image select was charged.
        assert db.stats.queries == queries_before


class TestBridge:
    def test_direct_write_invalidates_stale_page(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        bridge = TriggerInvalidationBridge(awc.cache, awc.collector).attach(db)
        awc.install(container.servlet_classes)
        try:
            container.post(
                "/add", {"id": "1", "topic": "a", "body": "x", "score": "0"}
            )
            container.get("/view_topic", {"topic": "a"})
            # A maintenance script updates the database directly,
            # bypassing the servlets entirely.
            db.update("UPDATE notes SET body = ? WHERE id = ?", ("patched", 1))
            assert bridge.external_writes == 1
            page = container.get("/view_topic", {"topic": "a"})
            assert "patched" in page.body  # no stale page served
        finally:
            awc.uninstall()

    def test_unrelated_direct_write_preserves_pages(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        TriggerInvalidationBridge(awc.cache, awc.collector).attach(db)
        awc.install(container.servlet_classes)
        try:
            container.post(
                "/add", {"id": "1", "topic": "a", "body": "x", "score": "0"}
            )
            container.post(
                "/add", {"id": "2", "topic": "b", "body": "y", "score": "0"}
            )
            container.get("/view_topic", {"topic": "a"})
            # Direct write touching topic b only (pre-image precision).
            db.update("UPDATE notes SET body = ? WHERE id = ?", ("z", 2))
            hits_before = awc.stats.hits
            container.get("/view_topic", {"topic": "a"})
            assert awc.stats.hits == hits_before + 1
        finally:
            awc.uninstall()

    def test_in_request_writes_not_double_processed(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        bridge = TriggerInvalidationBridge(awc.cache, awc.collector).attach(db)
        awc.install(container.servlet_classes)
        try:
            container.post(
                "/add", {"id": "1", "topic": "a", "body": "x", "score": "0"}
            )
            # The write went through the woven app: the bridge must
            # defer to the request aspects.
            assert bridge.external_writes == 0
            assert bridge.skipped_in_request == 1
        finally:
            awc.uninstall()

    def test_bridge_without_collector_processes_everything(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        bridge = TriggerInvalidationBridge(awc.cache).attach(db)
        db.update(
            "INSERT INTO notes (id, topic, body, score) VALUES (1, 'a', 'x', 0)"
        )
        assert bridge.external_writes == 1
