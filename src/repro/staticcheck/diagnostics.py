"""The unified diagnostic model: rules, findings, baselines, reports.

Every pass emits :class:`Diagnostic` records against the catalogue in
:data:`RULES`.  A :class:`Report` applies an optional baseline --
intentional, justified findings recorded in ``staticcheck-baseline.json``
-- and is what the CLI renders (text or JSON) and CI gates on: any
*active* (non-baselined) diagnostic makes the check fail.

Baseline entries match on ``(rule, file, symbol)``, deliberately
ignoring line numbers so unrelated edits to a file do not invalidate
the baseline.  Entries that no longer match anything are reported as
*stale* so the baseline cannot silently rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Rule:
    """One rule of the catalogue (see ``docs/staticcheck.md``)."""

    id: str
    severity: str  # "error" | "warning"
    title: str
    hint: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "RC01",
            "error",
            "write reachable from a cacheable do_get",
            "move the write into a do_post handler (the write aspect "
            "invalidates after do_post), or mark the URI uncacheable",
        ),
        Rule(
            "RC02",
            "error",
            "non-deterministic source flows into a cached response body",
            "mark the URI uncacheable in the SemanticsRegistry (the "
            "paper's hidden-state rule), or derive the value from the "
            "request so it is part of the cache key",
        ),
        Rule(
            "RC03",
            "error",
            "database access bypasses the woven DB-API driver",
            "route the query through Statement.execute_query / "
            "execute_update so the consistency aspect records it",
        ),
        Rule(
            "RC04",
            "warning",
            "read template has neither an equality-bound position nor "
            "a column-disjointness plan",
            "the dependency table's value index cannot discriminate "
            "this template's instances, and its column lineage is not "
            "exact (or reads its tables' full width), so *every* "
            "overlapping write scans them.  Add an equality predicate, "
            "project specific columns of schema-known tables so the "
            "lineage prune can skip column-disjoint writes, or "
            "baseline the finding if the full scan is intended",
        ),
        Rule(
            "RC06",
            "warning",
            "dead write: updated columns are read by no registered "
            "template",
            "no read template reachable from any handler has these "
            "columns in its lineage read set, so the write can never "
            "invalidate a cached entry.  Either the column is dead "
            "weight in the write, or a read that should register a "
            "dependency on it is missing (e.g. bypassing the woven "
            "driver) -- fix the read, drop the column, or baseline "
            "with a justification",
        ),
        Rule(
            "PC01",
            "warning",
            "dead pointcut: advice matches no join point",
            "fix the type/method pattern (Pointcut.explain(target) "
            "shows why each candidate is rejected) or delete the advice",
        ),
        Rule(
            "PC02",
            "error",
            "required join point matched by no caching advice",
            "every servlet handler and driver-level SQL/transaction "
            "call site must be covered; widen the aspect's pointcut or "
            "register the class with the weaver",
        ),
        Rule(
            "PC03",
            "error",
            "advice-precedence ambiguity at a shared join point",
            "two aspects with equal precedence advise the same join "
            "point; their nesting order is declaration order, which is "
            "accidental -- give the aspects distinct precedences",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a source location."""

    rule: str
    file: str  # repo-relative, '/'-separated
    line: int
    symbol: str  # e.g. "BrowseCategories.do_get"
    message: str

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    @property
    def hint(self) -> str:
        return RULES[self.rule].hint

    @property
    def key(self) -> tuple[str, str, str]:
        """Baseline matching key (line numbers excluded on purpose)."""
        return (self.rule, self.file, self.symbol)

    def format(self) -> str:
        return (
            f"{self.file}:{self.line}: {self.rule} [{self.severity}] "
            f"{self.symbol}: {self.message}\n    hint: {self.hint}"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class BaselineEntry:
    """One intentional finding, with its recorded justification."""

    rule: str
    file: str
    symbol: str
    justification: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.file, self.symbol)


def load_baseline(path: Path) -> tuple[BaselineEntry, ...]:
    """Read ``staticcheck-baseline.json`` (see docs for the format).

    A missing file is an empty baseline: every finding stays active,
    so a mistyped path fails loudly through the findings themselves.
    """
    path = Path(path)
    if not path.exists():
        return ()
    data = json.loads(path.read_text())
    entries = []
    for raw in data.get("entries", ()):
        entries.append(
            BaselineEntry(
                rule=raw["rule"],
                file=raw["file"],
                symbol=raw["symbol"],
                justification=raw.get("justification", ""),
            )
        )
    return tuple(entries)


@dataclass
class Report:
    """The outcome of one check run, after baseline application."""

    active: list[Diagnostic] = field(default_factory=list)
    suppressed: list[tuple[Diagnostic, BaselineEntry]] = field(
        default_factory=list
    )
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    #: Fuzzy matches for stale entries: ``entry.key -> file`` where a
    #: live diagnostic has the same (rule, symbol) but a different
    #: file -- almost always a file move that orphaned the entry.
    stale_hints: dict[tuple[str, str, str], str] = field(default_factory=dict)
    #: Column-lineage summary over the target's read templates (see
    #: :func:`repro.staticcheck.cacheability.lineage_summary`); None
    #: when the runner did not compute one.
    lineage: dict[str, int] | None = None

    @classmethod
    def build(
        cls,
        diagnostics: list[Diagnostic],
        baseline: tuple[BaselineEntry, ...] = (),
    ) -> "Report":
        by_key: dict[tuple[str, str, str], BaselineEntry] = {
            entry.key: entry for entry in baseline
        }
        report = cls()
        matched: set[tuple[str, str, str]] = set()
        for diagnostic in sorted(
            diagnostics, key=lambda d: (d.file, d.line, d.rule, d.symbol)
        ):
            entry = by_key.get(diagnostic.key)
            if entry is not None:
                report.suppressed.append((diagnostic, entry))
                matched.add(entry.key)
            else:
                report.active.append(diagnostic)
        report.stale_baseline = [
            entry for entry in baseline if entry.key not in matched
        ]
        # Baseline keys include the file, so moving a file orphans its
        # entries even though the finding still exists.  Point each
        # stale entry at a same-(rule, symbol) diagnostic in another
        # file so the report says "moved" instead of just "stale".
        by_rule_symbol: dict[tuple[str, str], set[str]] = {}
        for diagnostic in diagnostics:
            by_rule_symbol.setdefault(
                (diagnostic.rule, diagnostic.symbol), set()
            ).add(diagnostic.file)
        for entry in report.stale_baseline:
            moved = by_rule_symbol.get((entry.rule, entry.symbol), set())
            moved = moved - {entry.file}
            if moved:
                report.stale_hints[entry.key] = sorted(moved)[0]
        return report

    @property
    def ok(self) -> bool:
        return not self.active

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def rule_ids(self) -> set[str]:
        return {d.rule for d in self.active}

    def render_text(self) -> str:
        lines: list[str] = []
        for diagnostic in self.active:
            lines.append(diagnostic.format())
        if self.suppressed:
            lines.append(
                f"{len(self.suppressed)} finding(s) suppressed by baseline:"
            )
            for diagnostic, entry in self.suppressed:
                lines.append(
                    f"    {diagnostic.rule} {diagnostic.symbol} "
                    f"({diagnostic.file}) -- {entry.justification}"
                )
        for entry in self.stale_baseline:
            hint = self.stale_hints.get(entry.key)
            suffix = (
                f" -- moved? the finding now reports at {hint}; "
                f"update the entry's file" if hint else ""
            )
            lines.append(
                f"stale baseline entry (no longer reported): "
                f"{entry.rule} {entry.symbol} ({entry.file}){suffix}"
            )
        lines.append(
            f"staticcheck: {len(self.active)} active, "
            f"{len(self.suppressed)} baselined, "
            f"{len(self.stale_baseline)} stale baseline entr"
            f"{'y' if len(self.stale_baseline) == 1 else 'ies'}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            **({"lineage": self.lineage} if self.lineage is not None else {}),
            "active": [d.to_json() for d in self.active],
            "suppressed": [
                {**d.to_json(), "justification": e.justification}
                for d, e in self.suppressed
            ],
            "stale_baseline": [
                {
                    "rule": e.rule,
                    "file": e.file,
                    "symbol": e.symbol,
                    **(
                        {"moved_to": self.stale_hints[e.key]}
                        if e.key in self.stale_hints
                        else {}
                    ),
                }
                for e in self.stale_baseline
            ],
        }
