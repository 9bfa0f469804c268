"""Woven observability over the notes application (single node).

The servlets under test contain no tracing or metrics calls; every
span and every histogram sample below arrives purely by weaving the
:class:`TracingAspect`/:class:`MetricsAspect` alongside the caching
aspects (shared weaver) and over the cache facade (infra weaver).
"""

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cluster.router import ClusterRouter
from repro.obs import Observability
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import build_notes_app


class BoomServlet(HttpServlet):
    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        raise RuntimeError("kaput")


class TeapotServlet(HttpServlet):
    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        response.send_error(503, "brewing")


@pytest.fixture
def observed_app():
    db, container = build_notes_app()
    container.register("/boom", BoomServlet())
    container.register("/teapot", TeapotServlet())
    obs = Observability()
    awc = AutoWebCache()
    awc.install(container.servlet_classes, extra_aspects=obs.aspects)
    obs.weave_infrastructure()
    try:
        yield db, container, awc, obs
    finally:
        obs.unweave_infrastructure()
        awc.uninstall()


def seed(container):
    container.post(
        "/add", {"id": "1", "topic": "tea", "body": "oolong", "score": "3"}
    )


def span_names(tracer):
    _trace_id, spans = tracer.last_trace()
    return [s.name for s in spans]


class TestTracingAspect:
    def test_miss_trace_covers_servlet_sql_and_cache(self, observed_app):
        _db, container, _awc, obs = observed_app
        seed(container)
        obs.tracer.reset()
        container.get("/view_topic", {"topic": "tea"})
        trace_id, spans = obs.tracer.last_trace()
        names = [s.name for s in spans]
        assert names == [
            "servlet GET /view_topic",
            "cache.lookup",
            "sql.query",
            "cache.insert",
        ]
        # One trace id stitches the whole request...
        assert {s.trace_id for s in spans} == {trace_id}
        # ...and tracing brackets caching: every inner span is a child
        # of the servlet span.
        root = spans[0]
        assert root.parent_id is None
        assert all(s.parent_id == root.span_id for s in spans[1:])
        assert root.tags["status"] == "200"
        # The check returned a miss record, not an entry: a miss.
        assert spans[1].tags["outcome"] == "miss"

    def test_hit_is_still_a_traced_event(self, observed_app):
        _db, container, _awc, obs = observed_app
        seed(container)
        container.get("/view_topic", {"topic": "tea"})
        obs.tracer.reset()
        container.get("/view_topic", {"topic": "tea"})
        _id, spans = obs.tracer.last_trace()
        assert [s.name for s in spans] == [
            "servlet GET /view_topic",
            "cache.lookup",
        ]
        assert spans[1].tags["outcome"] == "hit"

    def test_write_trace_covers_update_and_invalidation(self, observed_app):
        _db, container, _awc, obs = observed_app
        seed(container)
        container.get("/view_topic", {"topic": "tea"})
        obs.tracer.reset()
        container.post("/score", {"id": "1", "score": "9"})
        _id, spans = obs.tracer.last_trace()
        names = [s.name for s in spans]
        assert names[0] == "servlet POST /score"
        assert "sql.update" in names
        assert "cache.invalidate" in names
        doomed = [s for s in spans if s.name == "cache.invalidate"][0]
        assert doomed.tags["doomed"] == "1"

    def test_servlet_exception_marks_span_error(self, observed_app):
        _db, container, _awc, obs = observed_app
        obs.tracer.reset()
        response = container.get("/boom")
        assert response.status == 500
        _id, spans = obs.tracer.last_trace()
        assert spans[0].status == "error"
        assert "RuntimeError: kaput" in spans[0].error

    def test_5xx_status_marks_span_error(self, observed_app):
        _db, container, _awc, obs = observed_app
        obs.tracer.reset()
        response = container.get("/teapot")
        assert response.status == 503
        _id, spans = obs.tracer.last_trace()
        assert spans[0].status == "error"
        assert spans[0].tags["status"] == "503"


class TestMetricsAspect:
    def test_phases_keyed_by_request_type(self, observed_app):
        _db, container, _awc, obs = observed_app
        seed(container)
        obs.hub.reset()
        container.get("/view_topic", {"topic": "tea"})
        container.get("/view_note", {"id": "1"})
        keys = {key for key, _h in obs.hub.items()}
        # SQL issued inside /view_topic is charged to /view_topic.
        assert ("sql.query", "/view_topic") in keys
        assert ("sql.query", "/view_note") in keys
        assert ("servlet", "/view_topic") in keys
        assert ("cache.lookup", "/view_topic") in keys
        assert ("cache.insert", "/view_note") in keys

    def test_hit_and_miss_both_observed(self, observed_app):
        _db, container, _awc, obs = observed_app
        seed(container)
        obs.hub.reset()
        container.get("/view_topic", {"topic": "tea"})
        container.get("/view_topic", {"topic": "tea"})
        assert obs.hub.histogram("cache.lookup", "/view_topic").count == 2
        # Insert only on the miss.
        assert obs.hub.histogram("cache.insert", "/view_topic").count == 1


class TestRuntimeSwitch:
    def test_disabled_records_nothing_but_serving_works(self, observed_app):
        _db, container, _awc, obs = observed_app
        seed(container)
        obs.disable()
        obs.tracer.reset()
        obs.hub.reset()
        response = container.get("/view_topic", {"topic": "tea"})
        assert "oolong" in response.body
        assert len(obs.tracer) == 0
        assert len(obs.hub) == 0
        obs.enable()
        container.get("/view_topic", {"topic": "tea"})
        assert len(obs.tracer) == 1

    def test_unweave_restores_cache_facade(self, observed_app):
        _db, _container, _awc, obs = observed_app
        assert getattr(vars(ClusterRouter)["check"], "__aw_woven__", False)
        obs.unweave_infrastructure()
        assert not getattr(vars(ClusterRouter)["check"], "__aw_woven__", False)
        # Idempotent: a second unweave is a no-op.
        obs.unweave_infrastructure()


class TestInstallFacade:
    def test_infra_report_lists_cache_join_points(self, observed_app):
        _db, _container, _awc, obs = observed_app
        woven = {
            (jp.class_name, jp.method_name)
            for jp in obs.infra_report.join_points
        }
        assert ("ClusterRouter", "check") in woven
        assert ("ClusterRouter", "insert") in woven
        assert ("ClusterRouter", "process_write_request") in woven

    def test_double_infra_weave_rejected(self, observed_app):
        from repro.errors import WeavingError

        _db, _container, _awc, obs = observed_app
        with pytest.raises(WeavingError):
            obs.weave_infrastructure(classes=(ClusterRouter,))
