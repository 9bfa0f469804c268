"""Whole-program consistency linter for the AutoWebCache reproduction.

AutoWebCache's strong-consistency guarantee rests on preconditions the
runtime never checks: cacheable servlets must be side-effect-free and
deterministic, and every SQL call site must flow through the woven
DB-API driver.  This package checks those preconditions *statically* --
the complement to the dynamic SQL analysis the paper describes (and the
gap its "limitations" section concedes).  Lock order is not checked
here: a lock checks its own rank when it is acquired (:mod:`repro.locks`).

Two passes share one diagnostic model (:mod:`~repro.staticcheck.diagnostics`):

- :mod:`~repro.staticcheck.cacheability` -- RC01..RC04 and RC06 over the
  servlet classes of ``repro.apps``;
- :mod:`~repro.staticcheck.coverage` -- PC01..PC03 over the registered
  pointcuts and the statically discovered join-point surface.

Entry points: ``python -m repro check`` (CLI), :func:`run_check`
(programmatic), ``make check`` (CI gate).
"""

from repro.staticcheck.diagnostics import (
    RULES,
    BaselineEntry,
    Diagnostic,
    Report,
    load_baseline,
)
from repro.staticcheck.runner import run_check
from repro.staticcheck.target import CheckTarget, default_target

__all__ = [
    "RULES",
    "BaselineEntry",
    "CheckTarget",
    "Diagnostic",
    "Report",
    "default_target",
    "load_baseline",
    "run_check",
]
