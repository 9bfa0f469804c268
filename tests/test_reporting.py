"""Reporting helpers: tables and ASCII charts."""

from repro.harness.reporting import render_chart, render_series, render_table


class TestTable:
    def test_column_alignment(self):
        text = render_table("T", ["col", "x"], [["long value", 1], ["a", 22]])
        lines = text.splitlines()
        # Header and body columns line up.
        header_idx = lines[2].index("x")
        assert lines[4][header_idx - 1] == " "

    def test_floats_formatted(self):
        assert "3.14" in render_table("T", ["v"], [[3.14159]])

    def test_series(self):
        assert "42" in render_series("S", [(1, 42)])


class TestChart:
    def series(self):
        return {
            "a": [(0.0, 1.0), (10.0, 5.0)],
            "b": [(0.0, 2.0), (10.0, 3.0)],
        }

    def test_contains_markers_and_legend(self):
        text = render_chart("C", self.series())
        assert "o=a" in text and "x=b" in text
        assert text.count("o") >= 2

    def test_extremes_on_border_rows(self):
        text = render_chart("C", self.series(), height=8)
        lines = text.splitlines()
        # y max labelled at the top row, y min at the bottom data row.
        assert "5" in lines[2]
        assert any("1" in line for line in lines[-4:])

    def test_log_scale_marker(self):
        text = render_chart("C", self.series(), log_y=True)
        assert "(log y)" in text

    def test_empty_series(self):
        assert "(no data)" in render_chart("C", {"a": []})

    def test_single_point(self):
        text = render_chart("C", {"a": [(5.0, 5.0)]})
        assert "o" in text

    def test_log_scale_orders_points(self):
        text = render_chart(
            "C", {"a": [(0, 1.0), (1, 10.0), (2, 100.0)]}, log_y=True, height=9
        )
        lines = [line for line in text.splitlines() if "|" in line]
        rows_with_marker = [i for i, line in enumerate(lines) if "o" in line]
        # Log scale spaces decades evenly: three distinct rows.
        assert len(rows_with_marker) == 3
        gaps = [b - a for a, b in zip(rows_with_marker, rows_with_marker[1:])]
        assert gaps[0] == gaps[1]


class TestProtocolCounters:
    def snapshot(self):
        return {
            "pair_analyses": 12,
            "templates_skipped_by_index": 30,
            "instances_skipped_by_index": 44,
            "extra_queries": 3,
            "hits": 9,
        }

    def test_single_node_snapshot_renders_all_counters(self):
        from repro.harness.reporting import (
            PROTOCOL_COUNTERS,
            render_protocol_counters,
        )

        single = {"cluster": self.snapshot(), "nodes": [], "bus": {}}
        text = render_protocol_counters("Protocol", single)
        for counter in PROTOCOL_COUNTERS:
            assert counter in text
        assert "12" in text and "44" in text
        # writes_deduped is bus-level; absent from the aggregate.
        assert "writes_deduped" in text

    def test_cluster_snapshot_pulls_bus_counters(self):
        from repro.harness.reporting import render_protocol_counters

        cluster = {
            "cluster": self.snapshot(),
            "nodes": [],
            "bus": {"writes_deduped": 7, "seq": 5},
        }
        text = render_protocol_counters("Protocol", cluster)
        lines = [l for l in text.splitlines() if l.startswith("writes_deduped")]
        assert lines and "7" in lines[0]


class TestHistogramSummary:
    def test_renders_percentile_columns(self):
        from repro.harness.reporting import render_histogram_summary
        from repro.obs import MetricsHub

        hub = MetricsHub()
        for _ in range(20):
            hub.observe("servlet", "/view_item", 0.004)
        hub.observe("servlet", "/view_item", 0.2)
        text = render_histogram_summary("Latency", hub)
        assert "p50 ms" in text and "p99 ms" in text
        assert "servlet" in text and "/view_item" in text
        assert "21" in text  # count column

    def test_empty_hub(self):
        from repro.harness.reporting import render_histogram_summary
        from repro.obs import MetricsHub

        assert "no samples" in render_histogram_summary("L", MetricsHub())
