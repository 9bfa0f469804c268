"""Weak (time-lagged) consistency mode tests.

``SemanticsRegistry.set_default_ttl`` turns AutoWebCache into a
CachePortal-style TTL cache: pages expire on a timer and writes never
invalidate.  Stale responses become possible within the window -- the
trade-off the related-work section discusses and the weak-consistency
ablation quantifies.
"""

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.semantics import SemanticsRegistry

from tests.conftest import build_notes_app, node_store


def make_weak_app(ttl=30.0):
    clock = {"now": 0.0}
    db, container = build_notes_app()
    semantics = SemanticsRegistry().set_default_ttl(ttl)
    awc = AutoWebCache(semantics=semantics, clock=lambda: clock["now"])
    awc.install(container.servlet_classes)
    return clock, db, container, awc


def test_default_ttl_applies_to_every_uri():
    registry = SemanticsRegistry().set_default_ttl(60.0)
    assert registry.ttl_for("/anything") == 60.0
    assert registry.ttl_for("/else") == 60.0


def test_specific_ttl_overrides_default():
    registry = SemanticsRegistry().set_default_ttl(60.0)
    registry.set_ttl_window("/best", 30.0)
    assert registry.ttl_for("/best") == 30.0
    assert registry.ttl_for("/other") == 60.0


def test_invalid_default_ttl():
    with pytest.raises(ValueError):
        SemanticsRegistry().set_default_ttl(0.0)


def test_weak_mode_serves_stale_within_window():
    clock, db, container, awc = make_weak_app(ttl=30.0)
    try:
        container.post("/add", {"id": "1", "topic": "a", "body": "old"})
        container.get("/view_topic", {"topic": "a"})
        container.post("/add", {"id": "2", "topic": "a", "body": "new"})
        stale = container.get("/view_topic", {"topic": "a"})
        assert "new" not in stale.body  # stale: writes do not invalidate
        assert awc.stats.semantic_hits == 1
        assert awc.stats.invalidated_pages == 0
    finally:
        awc.uninstall()


def test_weak_mode_refreshes_after_expiry():
    clock, db, container, awc = make_weak_app(ttl=30.0)
    try:
        container.post("/add", {"id": "1", "topic": "a", "body": "old"})
        container.get("/view_topic", {"topic": "a"})
        container.post("/add", {"id": "2", "topic": "a", "body": "new"})
        clock["now"] = 31.0
        fresh = container.get("/view_topic", {"topic": "a"})
        assert "new" in fresh.body
        assert awc.stats.misses_expired == 1
    finally:
        awc.uninstall()


def test_weak_mode_skips_dependency_bookkeeping():
    clock, db, container, awc = make_weak_app(ttl=30.0)
    try:
        container.post("/add", {"id": "1", "topic": "a", "body": "x"})
        container.get("/view_topic", {"topic": "a"})
        assert node_store(awc).pages.dependencies.template_count == 0
        assert awc.stats.intersection_tests == 0
    finally:
        awc.uninstall()


def test_weak_vs_strong_staleness():
    """Lock-step comparison: weak mode serves stale bodies, strong
    mode never does."""
    # Strong configuration.
    db_s, container_s = build_notes_app()
    strong = AutoWebCache()
    strong.install(container_s.servlet_classes)
    try:
        stale_strong = _drive_and_count_stale(container_s)
    finally:
        strong.uninstall()
    assert stale_strong == 0

    # Weak configuration.
    clock, db_w, container_w, weak = make_weak_app(ttl=1000.0)
    try:
        stale_weak = _drive_and_count_stale(container_w)
    finally:
        weak.uninstall()
    assert stale_weak > 0


def _drive_and_count_stale(container) -> int:
    """Interleave writes and reads; count reads missing the newest note."""
    stale = 0
    container.post("/add", {"id": "0", "topic": "a", "body": "seed"})
    for i in range(1, 6):
        container.get("/view_topic", {"topic": "a"})
        container.post("/add", {"id": str(i), "topic": "a", "body": f"v{i}"})
        page = container.get("/view_topic", {"topic": "a"})
        if f"v{i}" not in page.body:
            stale += 1
    return stale
