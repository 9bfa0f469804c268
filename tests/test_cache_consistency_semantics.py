"""ConsistencyCollector and SemanticsRegistry tests."""

import pytest

from repro.cache.consistency import ConsistencyCollector
from repro.cache.entry import QueryInstance
from repro.cache.semantics import SemanticsRegistry
from repro.errors import ConsistencyError
from repro.sql.template import templateize
from repro.web.http import HttpRequest


def instance(sql, params):
    template, values = templateize(sql, params)
    return QueryInstance(template, values)


class TestCollector:
    def test_read_context_records_reads(self):
        collector = ConsistencyCollector()
        context = collector.begin("read")
        collector.record_read(instance("SELECT a FROM t WHERE b = ?", (1,)))
        assert collector.end() is context
        assert len(context.reads) == 1
        assert collector.current() is None

    def test_write_context_ignores_reads(self):
        collector = ConsistencyCollector()
        context = collector.begin("write")
        collector.record_read(instance("SELECT a FROM t WHERE b = ?", (1,)))
        collector.record_write(instance("DELETE FROM t WHERE b = ?", (1,)))
        collector.end()
        assert context.reads == []
        assert len(context.writes) == 1

    def test_read_context_records_writes_too(self):
        # A "read" handler that writes must still trigger invalidation.
        collector = ConsistencyCollector()
        context = collector.begin("read")
        collector.record_write(instance("DELETE FROM t", ()))
        collector.end()
        assert len(context.writes) == 1

    def test_no_context_ignores_everything(self):
        collector = ConsistencyCollector()
        collector.record_read(instance("SELECT a FROM t", ()))
        collector.record_write(instance("DELETE FROM t", ()))
        collector.mark_aborted()  # no-op without context

    def test_nested_begin_rejected(self):
        collector = ConsistencyCollector()
        collector.begin("read")
        with pytest.raises(ConsistencyError):
            collector.begin("read")
        collector.end()

    def test_end_without_begin_rejected(self):
        with pytest.raises(ConsistencyError):
            ConsistencyCollector().end()

    def test_mark_aborted(self):
        collector = ConsistencyCollector()
        context = collector.begin("read")
        collector.mark_aborted()
        collector.end()
        assert context.aborted


class TestSemantics:
    def test_default_everything_cacheable(self):
        registry = SemanticsRegistry()
        assert registry.is_cacheable(HttpRequest("GET", "/x"))
        assert registry.ttl_for("/x") is None

    def test_mark_uncacheable(self):
        registry = SemanticsRegistry().mark_uncacheable("/hidden")
        assert not registry.is_cacheable(HttpRequest("GET", "/hidden"))
        assert registry.is_cacheable(HttpRequest("GET", "/other"))
        assert "/hidden" in registry.uncacheable_uris

    def test_predicate_rule(self):
        registry = SemanticsRegistry().mark_uncacheable_when(
            lambda request: request.get_parameter("private") == "1"
        )
        assert not registry.is_cacheable(HttpRequest("GET", "/x", {"private": "1"}))
        assert registry.is_cacheable(HttpRequest("GET", "/x", {"private": "0"}))

    def test_ttl_window(self):
        registry = SemanticsRegistry().set_ttl_window("/best", 30.0)
        assert registry.ttl_for("/best") == 30.0

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            SemanticsRegistry().set_ttl_window("/x", 0.0)

    def test_chaining(self):
        registry = (
            SemanticsRegistry()
            .mark_uncacheable("/a")
            .set_ttl_window("/b", 5.0)
        )
        assert not registry.is_cacheable(HttpRequest("GET", "/a"))
        assert registry.ttl_for("/b") == 5.0
