"""Cross-node trace stitching over the 4-node sharded cluster.

The acceptance property of the observability subsystem: one request
entering the cluster front-end yields ONE trace -- servlet handler,
cache lookup, SQL, bus publish and the remote invalidation work on
every node, all stitched together by a single trace id carried on the
invalidation bus messages.
"""

import threading

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cluster.bus import BusMessage
from repro.obs import Observability
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import build_notes_app


class VisitedTopicServlet(HttpServlet):
    """A read handler that also writes (a visit counter).

    This exercises every observed join point in one request: the GET
    goes through the cache lookup, runs SQL reads *and* an update, and
    the update's invalidation information is broadcast cluster-wide
    before the response completes.
    """

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        topic = request.get_parameter("topic")
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT id, body, score FROM notes WHERE topic = ? ORDER BY id",
            (topic,),
        )
        response.write(f"<h1>{topic}</h1>")
        while result.next():
            response.write(f"<p>{result.get('id')}:{result.get('body')}</p>")
        statement.execute_update(
            "UPDATE notes SET score = score + 1 WHERE topic = ?", (topic,)
        )


@pytest.fixture
def observed_cluster():
    db, container = build_notes_app()
    from repro.db import connect

    container.register("/visited_topic", VisitedTopicServlet(connect(db)))
    obs = Observability()
    awc = AutoWebCache(n_nodes=4)
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


class TestStitchedClusterTrace:
    def test_one_request_one_trace_across_four_nodes(self, observed_cluster):
        _db, container, awc, obs = observed_cluster
        seed(container)
        obs.tracer.reset()
        response = container.get("/visited_topic", {"topic": "tea"})
        assert response.status == 200
        trace_id, spans = obs.tracer.last_trace()
        names = [s.name for s in spans]
        # Every layer of the request is present in one trace:
        assert names[0] == "servlet GET /visited_topic"
        assert "cache.lookup" in names
        assert "sql.query" in names
        assert "sql.update" in names
        assert "bus.publish" in names
        assert names.count("bus.deliver") == 4
        # ...stitched by one trace id.
        assert {s.trace_id for s in spans} == {trace_id}
        # The deliveries happened on all four distinct nodes and are
        # children of the publish span (propagated via the message).
        publish = [s for s in spans if s.name == "bus.publish"][0]
        delivers = [s for s in spans if s.name == "bus.deliver"]
        assert {s.tags["node"] for s in delivers} == set(awc.router.node_names)
        assert all(s.parent_id == publish.span_id for s in delivers)

    def test_bus_message_carries_trace_ids(self, observed_cluster):
        _db, container, awc, obs = observed_cluster
        seed(container)
        obs.tracer.reset()
        container.post("/score", {"id": "1", "score": "9"})
        message = awc.bus.recent()[-1]
        trace_id, spans = obs.tracer.last_trace()
        publish = [s for s in spans if s.name == "bus.publish"][0]
        assert message.trace == (publish.trace_id, publish.span_id)

    def test_delivery_stitches_without_ambient_context(self, observed_cluster):
        """Explicit propagation: a delivery on a foreign thread (no
        ambient span whatsoever) still joins the publisher's trace via
        the ids carried on the message."""
        _db, _container, awc, obs = observed_cluster
        node = awc.router.nodes()[0]
        message = BusMessage(
            seq=999,
            origin="elsewhere",
            uri="/score",
            writes=(),
            trace=("feedfacefeedface", "deadbeef"),
        )
        done = threading.Event()

        def deliver():
            node.apply(message)
            done.set()

        thread = threading.Thread(target=deliver)
        thread.start()
        thread.join()
        assert done.is_set()
        spans = obs.tracer.trace("feedfacefeedface")
        assert [s.name for s in spans] == ["bus.deliver"]
        assert spans[0].parent_id == "deadbeef"

    def test_cluster_metrics_cover_bus_phases(self, observed_cluster):
        _db, container, obs_awc, obs = observed_cluster
        seed(container)
        obs.hub.reset()
        container.post("/score", {"id": "1", "score": "5"})
        phases = obs.hub.phases()
        assert "bus.publish" in phases
        assert "bus.deliver" in phases
        assert obs.hub.aggregate("bus.deliver").count == 4

    def test_trace_field_defaults_to_none_without_weaving(self):
        message = BusMessage(seq=1, origin="n", uri="/", writes=())
        assert message.trace is None
