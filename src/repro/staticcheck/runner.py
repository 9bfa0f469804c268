"""Orchestrates the two passes into one :class:`Report`."""

from __future__ import annotations

from pathlib import Path

from repro.staticcheck.cacheability import check_cacheability, lineage_summary
from repro.staticcheck.coverage import check_coverage
from repro.staticcheck.diagnostics import Report, load_baseline
from repro.staticcheck.target import CheckTarget, default_target


def run_check(
    target: CheckTarget | None = None,
    baseline_path: Path | None | str = "auto",
) -> Report:
    """Run every pass over ``target`` (the real repo by default).

    ``baseline_path="auto"`` uses the target's recorded baseline;
    ``None`` disables baselining (every finding is active).
    """
    target = target or default_target()
    diagnostics = check_cacheability(target) + check_coverage(target)
    if baseline_path == "auto":
        resolved = target.baseline_path
    else:
        resolved = Path(baseline_path) if baseline_path else None
    baseline = load_baseline(resolved) if resolved else ()
    report = Report.build(diagnostics, baseline)
    report.lineage = lineage_summary(target)
    return report
