"""The consistency linter: golden run over the seeded badapp fixture,
clean run over the real repository, baseline semantics, and the CLI.

The golden test computes every expected line anchor by scanning the
fixture source for the violating construct, so editing the fixture
cannot silently drift the assertions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.staticcheck import (
    RULES,
    Diagnostic,
    Report,
    default_target,
    load_baseline,
    run_check,
)
from repro.staticcheck.cacheability import check_cacheability
from repro.staticcheck.diagnostics import BaselineEntry
from repro.staticcheck.target import AppSpec, CheckTarget, repo_root
from tests.fixtures import fragapp
from tests.fixtures.badapp import badapp_target

pytestmark = pytest.mark.staticcheck

ALL_RULES = {
    "RC01", "RC02", "RC03", "RC04", "RC06",
    "PC01", "PC02", "PC03",
}

_FIXTURE = Path(__file__).parent / "fixtures" / "badapp"


def line_of(file: Path, needle: str, occurrence: int = 1) -> int:
    """1-based line of the Nth line containing ``needle``."""
    hits = [
        i
        for i, text in enumerate(file.read_text().splitlines(), start=1)
        if needle in text
    ]
    assert len(hits) >= occurrence, f"{needle!r} x{occurrence} not in {file}"
    return hits[occurrence - 1]


def test_rule_catalogue_is_complete():
    assert set(RULES) == ALL_RULES
    for rule in RULES.values():
        assert rule.severity in ("error", "warning")
        assert rule.hint


def test_badapp_reports_every_rule_with_correct_anchors():
    report = run_check(badapp_target(), baseline_path=None)
    assert report.exit_code == 1
    assert report.rule_ids() == ALL_RULES
    assert not report.suppressed and not report.stale_baseline

    servlets = _FIXTURE / "servlets.py"
    aspects = _FIXTURE / "aspects.py"
    expected = {
        ("RC01", "AuditedCounter.do_get"):
            (servlets, "statement.execute_update(", 1),
        ("RC02", "LuckyNumber.do_get"):
            (servlets, "random.randrange", 1),
        ("RC03", "BackdoorReader.do_get"):
            (servlets, "self._database.query(", 1),
        # ScanHeavy holds the 2nd execute_query call site in the file
        # (AuditedCounter has the 1st, GoodServlet/Orphan the 3rd/4th).
        ("RC04", "ScanHeavy.do_get"):
            (servlets, "statement.execute_query(", 2),
        # StampingWriter holds the 2nd execute_update site (AuditedCounter
        # has the 1st).
        ("RC06", "StampingWriter.do_post"):
            (servlets, "statement.execute_update(", 2),
        ("PC01", "GhostAspect.refresh_stale"):
            (aspects, "execution(RetiredServlet.do_refresh(..))", 1),
        ("PC02", "OrphanServlet.do_get"):
            (servlets, "def do_get", 6),
        ("PC03", "BadCachingAspect.cache_read|RivalAspect.shadow_read"):
            (aspects, "execution(GoodServlet.do_get(..))", 1),
    }
    by_key = {(d.rule, d.symbol): d for d in report.active}
    assert len(report.active) == 8  # one per rule
    assert len(by_key) == 8
    for (rule, symbol), (file, needle, occurrence) in expected.items():
        diagnostic = by_key[(rule, symbol)]
        relative = file.relative_to(Path(__file__).parents[1]).as_posix()
        assert diagnostic.file == relative
        assert diagnostic.line == line_of(file, needle, occurrence), (
            f"{rule} anchored at {diagnostic.file}:{diagnostic.line}, "
            f"expected the line of {needle!r}"
        )


def test_real_repo_is_clean_after_baseline():
    report = run_check(default_target())
    assert report.active == []
    assert report.stale_baseline == []
    assert report.exit_code == 0
    # The suppressions are the justified RC06 TPC-W bookkeeping writes;
    # the former RC04 entries earned column-disjointness plans and are
    # no longer findings at all.
    assert {d.rule for d, _entry in report.suppressed} == {"RC06"}
    # The lineage summary rides along: the catalog resolves both apps'
    # schemas and most read templates carry an exact column read set.
    assert report.lineage is not None
    assert report.lineage["catalog_tables"] > 0
    assert report.lineage["exact_lineage"] <= report.lineage["read_templates"]
    assert report.lineage["column_disjointness_plans"] > 0


def test_baseline_suppresses_by_key_and_reports_stale(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "entries": [
            {
                "rule": "RC04",
                "file": "tests/fixtures/badapp/servlets.py",
                "symbol": "ScanHeavy.do_get",
                "justification": "seeded",
            },
            {
                "rule": "RC01",
                "file": "tests/fixtures/badapp/servlets.py",
                "symbol": "NoSuchServlet.do_get",
                "justification": "stale on purpose",
            },
        ]
    }))
    report = run_check(badapp_target(), baseline_path=baseline_file)
    assert report.exit_code == 1  # other findings stay active
    assert {d.rule for d, _entry in report.suppressed} == {"RC04"}
    assert [e.symbol for e in report.stale_baseline] == ["NoSuchServlet.do_get"]
    assert "RC04" not in {d.rule for d in report.active}


def test_report_build_orders_and_serialises():
    diagnostics = [
        Diagnostic(rule="PC03", file="b.py", line=9, symbol="X.y", message="m2"),
        Diagnostic(rule="RC01", file="a.py", line=3, symbol="A.b", message="m1"),
    ]
    report = Report.build(diagnostics, ())
    assert [d.file for d in report.active] == ["a.py", "b.py"]
    payload = report.to_json()
    assert payload["ok"] is False
    assert len(payload["active"]) == 2
    assert payload["active"][0]["rule"] == "RC01"
    assert payload["active"][0]["severity"] == RULES["RC01"].severity
    text = report.render_text()
    assert "a.py:3" in text and "b.py:9" in text


def test_load_baseline_missing_file(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == ()


def _fragment_target(classes, uncacheable=(), fragmented=()):
    interactions = tuple(
        (f"/frag/{cls.__name__}", cls, False) for cls in classes
    )
    return CheckTarget(
        repo_root=repo_root(),
        apps=(
            AppSpec(
                name="fragapp",
                interactions=interactions,
                uncacheable_uris=frozenset(uncacheable),
                fragmented_uris=frozenset(fragmented),
            ),
        ),
    )


def test_rc02_exempts_entropy_confined_to_holes():
    assert check_cacheability(_fragment_target([fragapp.HoleOnly])) == []


def test_rc02_fires_inside_fragment_thunks():
    diagnostics = check_cacheability(
        _fragment_target([fragapp.EntropyInFragment])
    )
    assert [d.rule for d in diagnostics] == ["RC02"]
    assert diagnostics[0].symbol == "EntropyInFragment.do_get"


def test_rc02_fragment_nested_in_hole_reenters_cacheable():
    diagnostics = check_cacheability(
        _fragment_target([fragapp.FragmentInsideHole])
    )
    assert [d.rule for d in diagnostics] == ["RC02"]


def test_rc02_helper_reached_outside_hole_is_not_confined():
    diagnostics = check_cacheability(
        _fragment_target([fragapp.EscapedHelper])
    )
    assert [d.rule for d in diagnostics] == ["RC02"]


def test_fragmented_uris_reenter_the_cacheable_surface():
    uri = "/frag/EntropyInFragment"
    hidden = check_cacheability(
        _fragment_target([fragapp.EntropyInFragment], uncacheable=[uri])
    )
    assert hidden == []  # plainly uncacheable: the read rules skip it
    fragmented = check_cacheability(
        _fragment_target(
            [fragapp.EntropyInFragment],
            uncacheable=[uri],
            fragmented=[uri],
        )
    )
    assert [d.rule for d in fragmented] == ["RC02"]


def test_registry_resolves_same_named_servlets_by_identity():
    # Both benchmarks define a ``Home`` servlet; under name lookup the
    # first registration shadowed the second, so the TPC-W Home was
    # never scanned at all.
    from repro.apps.rubis.servlets_browse import Home as RubisHome
    from repro.apps.tpcw.servlets_read import Home as TpcwHome

    registry = default_target().registry
    rubis_info = registry.info_for(RubisHome)
    tpcw_info = registry.info_for(TpcwHome)
    assert rubis_info.cls is RubisHome
    assert tpcw_info.cls is TpcwHome
    assert "rubis" in rubis_info.functions["do_get"].file
    assert "tpcw" in tpcw_info.functions["do_get"].file


def test_stale_baseline_fuzzy_matches_moved_files():
    diagnostic = Diagnostic(
        rule="RC04", file="new/place.py", line=5,
        symbol="X.do_get", message="m",
    )
    entry = BaselineEntry(
        rule="RC04", file="old/place.py",
        symbol="X.do_get", justification="j",
    )
    report = Report.build([diagnostic], (entry,))
    assert report.active == [diagnostic]
    assert report.stale_baseline == [entry]
    assert report.stale_hints[entry.key] == "new/place.py"
    text = report.render_text()
    assert "moved?" in text and "new/place.py" in text
    payload = report.to_json()
    assert payload["stale_baseline"][0]["moved_to"] == "new/place.py"


def test_stale_baseline_without_moved_match_has_no_hint():
    entry = BaselineEntry(
        rule="RC04", file="old/place.py",
        symbol="Gone.do_get", justification="j",
    )
    report = Report.build([], (entry,))
    assert report.stale_hints == {}
    assert "moved?" not in report.render_text()
    assert "moved_to" not in report.to_json()["stale_baseline"][0]


def test_cli_check_is_clean_on_repo(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "staticcheck: 0 active" in out


def test_cli_check_json_and_artifact(tmp_path, capsys):
    out_file = tmp_path / "nested" / "staticcheck.json"
    status = main(
        ["check", "--json", "--no-baseline", "--json-out", str(out_file)]
    )
    assert status == 1  # without the baseline the RC06 findings are active
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out_file.read_text())
    assert printed == written
    assert {d["rule"] for d in printed["active"]} == {"RC06"}
    # The two TPC-W shopping-cart bookkeeping writes; the former RC04
    # templates (BestSellers' MAX(o_id), SearchResults' LIKE pair) now
    # carry column-disjointness plans and are no longer findings.
    assert len(printed["active"]) == 2
    assert printed["ok"] is False
    assert printed["lineage"]["column_disjointness_plans"] > 0
