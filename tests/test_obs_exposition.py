"""Exposition: Prometheus text format, trace rendering, the servlets."""

import pytest

from repro.cache.semantics import SemanticsRegistry
from repro.obs import (
    METRICS_URI,
    TRACES_URI,
    MetricsHub,
    Tracer,
    mount_observability,
    render_metrics,
    render_trace,
    render_traces,
)
from repro.web.container import ServletContainer


@pytest.fixture
def populated():
    hub = MetricsHub(bounds=(0.001, 0.01))
    tracer = Tracer()
    hub.observe("servlet", "/view_item", 0.005)
    hub.observe("servlet", "/view_item", 0.05)
    with tracer.span("servlet GET /view_item", tags={"status": "200"}):
        with tracer.span("cache.lookup") as inner:
            inner.set_tag("outcome", "miss")
    return hub, tracer


class TestMetricsExposition:
    def test_histogram_series_shape(self, populated):
        hub, tracer = populated
        text = render_metrics(hub, tracer)
        assert "# TYPE repro_phase_latency_seconds histogram" in text
        assert (
            'repro_phase_latency_seconds_bucket{phase="servlet",'
            'request="/view_item",le="0.001"} 0' in text
        )
        assert (
            'repro_phase_latency_seconds_bucket{phase="servlet",'
            'request="/view_item",le="0.01"} 1' in text
        )
        # +Inf bucket equals the total count, and _count matches.
        assert 'le="+Inf"} 2' in text
        assert (
            'repro_phase_latency_seconds_count{phase="servlet",'
            'request="/view_item"} 2' in text
        )

    def test_tracer_gauges(self, populated):
        hub, tracer = populated
        text = render_metrics(hub, tracer)
        assert "repro_tracer_spans_recorded_total 2" in text
        assert "repro_tracer_traces_buffered 1" in text

    def test_label_escaping(self):
        hub = MetricsHub(bounds=(1.0,))
        hub.observe("servlet", 'with"quote', 0.1)
        text = render_metrics(hub)
        assert 'request="with\\"quote"' in text


class TestTraceRendering:
    def test_tree_indentation_follows_parent_links(self, populated):
        _hub, tracer = populated
        trace_id, spans = tracer.last_trace()
        text = render_trace(trace_id, spans)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {trace_id}")
        assert "servlet GET /view_item" in lines[1]
        # Child is indented one level deeper than the root.
        assert lines[2].index("cache.lookup") > lines[1].index("servlet")
        assert "outcome=miss" in lines[2]

    def test_orphan_span_renders_at_root(self):
        tracer = Tracer()
        from repro.obs import SpanContext

        remote = SpanContext("feedfacefeedface", "deadbeef")
        with tracer.span("bus.deliver", parent=remote):
            pass
        text = render_trace(*tracer.last_trace())
        assert "bus.deliver" in text

    def test_render_traces_most_recent_first_with_limit(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        text = render_traces(tracer, limit=1)
        assert "second" in text and "first" not in text

    def test_empty_tracer(self):
        assert "no traces" in render_traces(Tracer())


class TestExpositionServlets:
    def make_container(self, populated):
        hub, tracer = populated
        container = ServletContainer()
        semantics = SemanticsRegistry()
        mount_observability(container, hub, tracer, semantics=semantics)
        return container, semantics

    def test_metrics_endpoint(self, populated):
        container, _sem = self.make_container(populated)
        response = container.get(METRICS_URI)
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "repro_phase_latency_seconds_bucket" in response.body

    def test_traces_endpoint(self, populated):
        container, _sem = self.make_container(populated)
        response = container.get(TRACES_URI)
        assert response.status == 200
        assert "servlet GET /view_item" in response.body

    def test_traces_endpoint_single_trace_lookup(self, populated):
        _hub, tracer = populated
        container, _sem = self.make_container(populated)
        trace_id, _spans = tracer.last_trace()
        response = container.get(TRACES_URI, {"trace": trace_id})
        assert trace_id in response.body
        missing = container.get(TRACES_URI, {"trace": "nope"})
        assert missing.status == 404

    def test_mount_marks_uris_uncacheable(self, populated):
        _container, semantics = self.make_container(populated)
        assert METRICS_URI in semantics.uncacheable_uris
        assert TRACES_URI in semantics.uncacheable_uris


def snapshot_of(aggregate: dict, membership: dict | None = None) -> dict:
    """The facade's one snapshot shape around hand-built counters."""
    return {
        "cluster": aggregate,
        "nodes": [],
        "bus": {},
        "membership": membership or {},
    }


#: A hand-built ClusterRouter.snapshot() shape: enough keys for the
#: cluster metric families without spinning up a ring.
CLUSTER_SNAPSHOT = {
    "cluster": {"templates_skipped_by_lineage": 4, "column_plans_built": 1},
    "bus": {"seq": 7, "published": 7, "delivered": 14},
    "membership": {
        "alpha": {"state": "alive", "counter": 9, "silence_seconds": 0.4},
        "beta": {"state": "suspect", "counter": 5, "silence_seconds": 3.2},
    },
}


class TestClusterExposition:
    def test_membership_state_set(self):
        # One series per (node, state), 1 only on the current state --
        # the Prometheus state-set idiom.
        text = render_metrics(MetricsHub(), cache_snapshot=CLUSTER_SNAPSHOT)
        assert 'repro_membership_state{node="alpha",state="alive"} 1' in text
        assert 'repro_membership_state{node="alpha",state="suspect"} 0' in text
        assert 'repro_membership_state{node="beta",state="suspect"} 1' in text
        assert 'repro_membership_state{node="beta",state="dead"} 0' in text
        assert (
            'repro_membership_silence_seconds{node="beta"} 3.200000' in text
        )

    def test_cluster_aggregate_supplies_lineage_counters(self):
        # The lineage counters come from the nested "cluster" aggregate,
        # not the top level of the cluster snapshot.
        text = render_metrics(MetricsHub(), cache_snapshot=CLUSTER_SNAPSHOT)
        assert 'repro_lineage_prune_total{event="template_skipped"} 4' in text
        assert 'repro_lineage_prune_total{event="plan_built"} 1' in text

    def test_witness_skips_are_a_counter(self):
        text = render_metrics(
            MetricsHub(), cache_snapshot=snapshot_of({"witness_skips": 3})
        )
        assert "# TYPE repro_witness_skips_total counter" in text
        assert "\nrepro_witness_skips_total 3\n" in text

    def test_partner_counters_are_counters(self):
        text = render_metrics(
            MetricsHub(),
            cache_snapshot=snapshot_of({"partner_skips": 5, "partner_probes": 2}),
        )
        assert "# TYPE repro_partner_skips_total counter" in text
        assert "\nrepro_partner_skips_total 5\n" in text
        assert "# TYPE repro_partner_probes_total counter" in text
        assert "\nrepro_partner_probes_total 2\n" in text

    def test_a_snapshot_without_members_emits_no_state_set(self):
        text = render_metrics(
            MetricsHub(),
            cache_snapshot=snapshot_of({"templates_skipped_by_lineage": 2}),
        )
        assert 'event="template_skipped"} 2' in text
        assert "repro_membership_state" not in text

    def test_live_cluster_metrics_endpoint(self):
        # End to end: a cluster serving its own /_metrics exposes the
        # membership of every node, snapshotted at serve time.
        from repro.cache.autowebcache import AutoWebCache
        from tests.conftest import build_notes_app

        _db, container = build_notes_app()
        awc = AutoWebCache(n_nodes=3)
        awc.install(container.servlet_classes)
        hub = MetricsHub()
        mount_observability(
            container, hub, Tracer(), semantics=awc.semantics, stats=awc.stats
        )
        try:
            container.get("/view_topic", {"topic": "0"})
            container.post(
                "/add", {"id": "900", "topic": "0", "body": "note"}
            )
            response = container.get(METRICS_URI)
        finally:
            awc.uninstall()
        assert response.status == 200
        text = response.body
        for node in ("node-0", "node-1", "node-2"):
            assert (
                f'repro_membership_state{{node="{node}",state="alive"}} 1'
                in text
            )
