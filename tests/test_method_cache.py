"""The method-level result-cache tier (MethodCacheAspect).

A designated helper method is woven with the page cache's own
check/insert protocol: its return value is cached under
``method://Class.method?args``, carrying its own SQL dependencies,
invalidated through the same indexed engine, and containment-climbed
into any page entry built from a cached result.
"""

from __future__ import annotations

import pytest

from repro.admission.aspects import (
    DEFAULT_METHOD_POINTCUT,
    MethodCacheAspect,
    method_cache_aspect_class,
    method_key,
    method_stat_uri,
)
from repro.admission.policy import AdaptiveAdmission
from repro.apps.html import hole
from repro.cache.autowebcache import AutoWebCache
from repro.db import connect
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import make_notes_db

TOPICS_POINTCUT = "execution(TopicCatalogue.topics(..))"


class TopicCatalogue:
    """A shared app helper: the designated method-cache candidate."""

    def __init__(self, connection) -> None:
        self._connection = connection
        self.calls = 0
        self.set_calls = 0
        self.banner_calls = 0

    def topics(self) -> list:
        self.calls += 1
        result = self._connection.create_statement().execute_query(
            "SELECT id, name FROM topics ORDER BY id"
        )
        return result.all_dicts()

    def topics_set(self) -> set:
        """Returns a set: JSON cannot round-trip it (uncacheable)."""
        self.set_calls += 1
        result = self._connection.create_statement().execute_query(
            "SELECT id, name FROM topics ORDER BY id"
        )
        return {row["name"] for row in result.all_dicts()}

    def topics_with_banner(self) -> list:
        """Renders a declared hole on the way: per-request state."""
        self.banner_calls += 1
        hole(HttpResponse(), "banner", lambda: None)
        result = self._connection.create_statement().execute_query(
            "SELECT id, name FROM topics ORDER BY id"
        )
        return result.all_dicts()


class TopicsPageA(HttpServlet):
    def __init__(self, catalogue: TopicCatalogue) -> None:
        self._catalogue = catalogue

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        names = ", ".join(row["name"] for row in self._catalogue.topics())
        response.write(f"<h1>A</h1><p>{names}</p>")


class TopicsPageB(HttpServlet):
    def __init__(self, catalogue: TopicCatalogue) -> None:
        self._catalogue = catalogue

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        rows = self._catalogue.topics()
        response.write(f"<h1>B</h1><p>{len(rows)} topics</p>")


class AddTopicServlet(HttpServlet):
    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        self._connection.create_statement().execute_update(
            "INSERT INTO topics (id, name) VALUES (?, ?)",
            (int(request.get_parameter("id")), request.get_parameter("name")),
        )
        response.write("added")


def build_topics_app():
    db = make_notes_db()
    connection = connect(db)
    catalogue = TopicCatalogue(connection)
    container = ServletContainer()
    container.register("/page_a", TopicsPageA(catalogue))
    container.register("/page_b", TopicsPageB(catalogue))
    container.register("/add_topic", AddTopicServlet(connection))
    return db, container, catalogue


@pytest.fixture
def topics_app():
    """(db, container, catalogue, awc) with the method tier woven."""
    db, container, catalogue = build_topics_app()
    awc = AutoWebCache(
        method_cache_targets=(TopicCatalogue,),
        method_cache_pointcut=TOPICS_POINTCUT,
    )
    awc.install(container.servlet_classes)
    try:
        yield db, container, catalogue, awc
    finally:
        awc.uninstall()


def seed_topics(container, *names):
    for i, name in enumerate(names, start=1):
        response = container.post(
            "/add_topic", {"id": str(i), "name": name}
        )
        assert response.status == 200


def method_keys(awc):
    return [
        key for key in awc.cache.pages.keys() if key.startswith("method://")
    ]


class TestKeying:
    def test_method_key_encodes_args_like_a_query_string(self):
        assert method_key("C.m") == "method://C.m"
        assert method_key("C.m", (1, "x")) == (
            "method://C.m?arg0=1&arg1=%27x%27"
        )
        assert method_key("C.m", (), {"region": 2}) == "method://C.m?region=2"

    def test_stat_uri_is_the_admission_class(self):
        assert method_stat_uri("C.m") == "method://C.m"


class TestMethodTier:
    def test_result_cached_under_method_scheme(self, topics_app):
        db, container, catalogue, awc = topics_app
        seed_topics(container, "alpha", "beta")
        response = container.get("/page_a")
        assert "alpha, beta" in response.body
        assert catalogue.calls == 1
        assert method_keys(awc) == ["method://TopicCatalogue.topics"]
        entry = awc.cache.pages.peek("method://TopicCatalogue.topics")
        assert entry.dependencies  # carries its own SQL reads

    def test_cross_page_hit_skips_the_method_body(self, topics_app):
        db, container, catalogue, awc = topics_app
        seed_topics(container, "alpha")
        container.get("/page_a")
        assert catalogue.calls == 1
        # Page B is a cold page miss, but the helper result is shared:
        # the method tier serves it without re-executing the body.
        response = container.get("/page_b")
        assert "1 topics" in response.body
        assert catalogue.calls == 1

    def test_page_hit_never_reaches_the_method(self, topics_app):
        db, container, catalogue, awc = topics_app
        seed_topics(container, "alpha")
        container.get("/page_a")
        container.get("/page_a")
        assert awc.stats.hits >= 1
        assert catalogue.calls == 1

    def test_write_invalidates_method_entry_and_containing_pages(
        self, topics_app
    ):
        db, container, catalogue, awc = topics_app
        seed_topics(container, "alpha")
        first = container.get("/page_a")
        assert "alpha" in first.body
        container.get("/page_b")
        # The write dooms the method entry through the same indexed
        # dependency engine, and containment climbs to both pages.
        container.post("/add_topic", {"id": "9", "name": "gamma"})
        assert "method://TopicCatalogue.topics" not in awc.cache.pages.keys()
        fresh = container.get("/page_a")
        assert "gamma" in fresh.body
        assert catalogue.calls == 2
        assert awc.stats.misses_invalidation >= 1
        fresh_b = container.get("/page_b")
        assert "2 topics" in fresh_b.body

    def test_admission_applies_per_method_signature(self):
        db, container, catalogue = build_topics_app()
        policy = AdaptiveAdmission(min_observations=5)
        awc = AutoWebCache(
            admission=policy,
            method_cache_targets=(TopicCatalogue,),
            method_cache_pointcut=TOPICS_POINTCUT,
        )
        awc.install(container.servlet_classes)
        try:
            seed_topics(container, "alpha")
            container.get("/page_a")
            assert "method://TopicCatalogue.topics" in policy.model.classes()
            row = policy.model.snapshot()["method://TopicCatalogue.topics"]
            assert row["inserts"] == 1
        finally:
            awc.uninstall()

    def test_non_json_value_recomputed_not_cached(self):
        db, container, catalogue = build_topics_app()
        awc = AutoWebCache(
            method_cache_targets=(TopicCatalogue,),
            method_cache_pointcut="execution(TopicCatalogue.topics_set(..))",
        )
        awc.install(container.servlet_classes)
        try:
            seed_topics(container, "alpha")
            # Direct calls are execution join points too: each one runs
            # the body (no entry can be stored), and the value survives.
            assert catalogue.topics_set() == {"alpha"}
            assert catalogue.topics_set() == {"alpha"}
            assert catalogue.set_calls == 2
            assert method_keys(awc) == []
        finally:
            awc.uninstall()


    def test_hole_bearing_method_not_cached_and_counted(self):
        """The nested routine is shared with fragments, so the method
        tier records the hole skip too (it used to skip silently)."""
        db, container, catalogue = build_topics_app()
        awc = AutoWebCache(
            method_cache_targets=(TopicCatalogue,),
            method_cache_pointcut=(
                "execution(TopicCatalogue.topics_with_banner(..))"
            ),
        )
        awc.install(container.servlet_classes)
        try:
            seed_topics(container, "alpha")
            assert catalogue.topics_with_banner() == [
                {"id": 1, "name": "alpha"}
            ]
            assert awc.stats.hole_skips == 1
            assert method_keys(awc) == []
            catalogue.topics_with_banner()
            assert catalogue.banner_calls == 2  # recomputed, not served
        finally:
            awc.uninstall()


class TestAspectFactory:
    def test_custom_pointcut_does_not_mutate_the_base_class(self):
        before = list(MethodCacheAspect.cache_method.__advice_specs__)
        custom = method_cache_aspect_class(TOPICS_POINTCUT)
        after = list(MethodCacheAspect.cache_method.__advice_specs__)
        assert after == before  # the shared function object is untouched
        specs = custom.cache_method.__advice_specs__
        assert len(specs) == 1
        assert TOPICS_POINTCUT in str(specs[0].pointcut)
        assert issubclass(custom, MethodCacheAspect)
        assert custom.precedence == MethodCacheAspect.precedence

    def test_default_pointcut_targets_the_rubis_catalogue(self):
        assert "CategoryCatalogue.categories" in DEFAULT_METHOD_POINTCUT
        specs = MethodCacheAspect.cache_method.__advice_specs__
        assert len(specs) == 1
