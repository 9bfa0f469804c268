"""Checks on the benchmark itself.  Not tier-1: run explicitly,

    python -m pytest bench/test_bench.py -q

It drives ``run.py --quick`` (about 30 s) once and inspects the report.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from bench import metrics, verify, workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    subprocess.run(RUN + ["--quick", "--out", str(out)], check=True, timeout=120)
    return json.loads(out.read_text())


def test_benchmark_json_is_a_projection_of_the_registry():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    listed = contract["end_to_end"] + contract["per_layer"]
    names = [m["name"] for m in listed]
    assert sorted(names) == sorted(metrics.METRICS), "every metric, once"
    for entry in listed:
        metric = metrics.METRICS[entry["name"]]
        assert NAME.fullmatch(entry["name"])
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
    assert [m["name"] for m in contract["end_to_end"]] == list(metrics.DRIVER_GATED)
    for entry in contract["end_to_end"]:
        metric = metrics.METRICS[entry["name"]]
        assert metric.only is None  # the driver wants it on every workload
        assert entry["bound"] == metric.bound <= 0.25
    assert "setup_s" in metrics.DRIVER_GATED


def test_generator_is_seeded_and_pinned():
    for workload in workloads.WORKLOADS.values():
        assert (
            workloads.golden_fingerprint(workload, seed=1)
            == workloads.GOLDEN_SEED1[workload.name]
        ), f"{workload.name}: the seed-1 request list changed"
        one = workloads.generate(workload, 1, "closed", 300)
        two = workloads.generate(workload, 2, "closed", 300)
        assert workloads.fingerprint(one) != workloads.fingerprint(two)


def test_phases_use_disjoint_session_ids():
    workload = workloads.WORKLOADS["rubis_bidding"]
    seen: dict[str, set[int]] = {
        phase: {r.session for r in workloads.generate(workload, 1, phase, 400)}
        for phase in workloads.PHASE_BASE
    }
    phases = list(seen)
    for i, a in enumerate(phases):
        for b in phases[i + 1 :]:
            assert not seen[a] & seen[b], (a, b)


def test_verify_reports_a_wrong_body(monkeypatch):
    workload = workloads.WORKLOADS["rubis_browse_hot"]
    assert verify.verify(workload, 1, None, count=40) == []
    honest = verify.expected_digests

    def tampered(workload, requests):
        expected = honest(workload, requests)
        expected[7] = (200, "0" * 16)
        return expected

    monkeypatch.setattr(verify, "expected_digests", tampered)
    problems = verify.verify(workload, 1, None, count=40)
    assert len(problems) == 1 and problems[0].startswith("#7 ")


def test_quick_run_reports_every_metric(quick):
    assert list(quick["workloads"]) == list(workloads.WORKLOADS)
    assert quick["host"]["nproc"] and quick["host"]["python"]
    for name, result in quick["workloads"].items():
        workload = workloads.WORKLOADS[name]
        assert result["correct"] and result["failed"] == 0, result["failures"]
        reported = result["metrics"]
        for metric in metrics.METRICS.values():
            if metrics.applies(metric, workload):
                assert metric.name in reported, f"{name}: {metric.name} missing"
            else:
                assert metric.name not in reported, f"{name}: {metric.name} stray"
        for metric_name, entry in reported.items():
            assert NAME.fullmatch(metric_name)
            assert entry["unit"] == metrics.METRICS[metric_name].unit
            assert len(entry["rounds"]) >= 1
        assert reported["error_rate"]["value"] == 0
        assert reported["trace.overhead_ratio"]["value"] > 0


def test_quick_run_layer_trace_tells_the_workloads_apart(quick):
    hot = quick["workloads"]["rubis_browse_hot"]["metrics"]
    churn = quick["workloads"]["rubis_browse_churn"]["metrics"]
    bidding = quick["workloads"]["rubis_bidding"]["metrics"]
    for name in ("sql.templateize_us", "db.query_us", "aop.servlet_chain_self_us",
                 "cache.insert_us"):
        assert churn[name]["value"] > 0, name
    assert bidding["cache.apply_writes_us"]["value"] > 0
    assert churn["web.fast_path_share"]["value"] < hot["web.fast_path_share"]["value"]
    for metrics_of in (hot, churn, bidding):
        assert abs(metrics_of["trace.self_sum_ratio"]["value"] - 1.0) <= 0.10


def test_span_trees_are_well_formed(quick):
    for name in quick["workloads"]:
        spans = metrics.load_spans(ROOT / "bench" / "results" / f"trace-{name}.jsonl")
        table = metrics.SpanTable(spans)
        assert spans, name
        totals: dict[int, int] = {}
        for span in spans:
            span_id, parent, _request, _name, start, end = span
            assert end >= start and table.self_ns[span_id] >= 0, span
            if parent:
                outer = table.by_id[parent]
                assert outer[4] <= start and end <= outer[5], (span, outer)
            root = table.root(span)[0]
            totals[root] = totals.get(root, 0) + table.self_ns[span_id]
        for root, self_total in totals.items():
            duration = table.by_id[root][5] - table.by_id[root][4]
            assert abs(self_total - duration) <= 0.01 * duration + 1, root


def test_unroutable_request_counts_as_an_error(tmp_path):
    out = tmp_path / "bad.json"
    subprocess.run(
        RUN + ["--quick", "--workload", "rubis_browse_hot", "--trace", "0",
               "--inject-unroutable", "--out", str(out)],
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    result = json.loads(out.read_text())["workloads"]["rubis_browse_hot"]
    assert result["failed"] == 2  # once per round
    assert result["metrics"]["error_rate"]["value"] > 0
    assert any("status 404" in failure for failure in result["failures"])


def _report(value: float, rounds: list[float]) -> dict:
    entry = {"value": value, "rounds": rounds}
    return {"workloads": {"w": {"metrics": {"throughput_rps": entry}}}}


def test_compare_verdicts():
    bound = metrics.METRICS["throughput_rps"].bound
    steady = _report(1000.0, [1000.0, 990.0, 995.0])
    rows, regressed = metrics.compare(steady, _report(980.0, [980.0, 975.0, 970.0]))
    assert rows[0]["verdict"] == "ok" and not regressed
    slower = 1000.0 * (1 - bound) - 50
    rows, regressed = metrics.compare(steady, _report(slower, [slower] * 3))
    assert rows[0]["verdict"] == "regressed" and regressed
    noisy = [slower, slower * 0.6, slower * 0.55]
    rows, regressed = metrics.compare(steady, _report(slower, noisy))
    assert rows[0]["verdict"] == "unresolved" and not regressed
