"""Code-size accounting (Figure 20).

The paper's Figure 20 compares the size of the reusable caching library
(JWebCaching), the benchmark applications, and the AspectJ weaving code,
arguing that the aspect layer is tiny relative to the rest.  This module
measures the same split over *this* repository's source tree.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import repro

#: Component -> glob patterns under the package root, mirroring the
#: paper's categories.  Globs, not file lists: a module added to a
#: package is counted without anyone remembering to list it here.
COMPONENTS: dict[str, tuple[str, ...]] = {
    # The weaving rules (the AspectJ-code analogue): every caching
    # aspect module, the miss-protocol driver they share, and the
    # installers.
    "weaving-rules": (
        "cache/aspects*.py",
        "cache/computation.py",
        "cache/autowebcache.py",
    ),
    # The reusable cache library (the JWebCaching analogue): the rest
    # of the caching packages (weaving-rules files are subtracted).
    "cache-library": ("cache/*.py", "cluster/*.py"),
    "rubis-app": ("apps/rubis/**/*.py",),
    "tpcw-app": ("apps/tpcw/**/*.py",),
    # Substrates, for context (the paper's stack had these for free).
    "aop-framework": ("aop/**/*.py",),
    "sql-frontend": ("sql/**/*.py",),
    "database-engine": ("db/**/*.py",),
    "servlet-engine": ("web/**/*.py",),
    # What measures the system rather than serves: experiment drivers,
    # differential harness, CLI and the virtual-time simulator.
    "measurement-harness": ("harness/*.py", "sim/*.py"),
}


@dataclass(frozen=True)
class ComponentSize:
    name: str
    files: int
    lines: int
    code_lines: int  # excluding blanks and comment-only lines


def _count_file(path: str) -> tuple[int, int]:
    lines = 0
    code = 0
    in_docstring = False
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            lines += 1
            stripped = raw.strip()
            if not stripped:
                continue
            if in_docstring:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_docstring = False
                continue
            if stripped.startswith('"""') or stripped.startswith("'''"):
                quote = stripped[:3]
                if not (len(stripped) > 3 and stripped.endswith(quote)):
                    in_docstring = True
                continue
            if stripped.startswith("#"):
                continue
            code += 1
    return lines, code


def _expand(root: str, patterns: tuple[str, ...]) -> set[str]:
    return {
        path
        for pattern in patterns
        for path in glob.glob(os.path.join(root, pattern), recursive=True)
    }


def measure_components() -> list[ComponentSize]:
    """Measure every component's size in the installed source tree."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    weaving = _expand(root, COMPONENTS["weaving-rules"])
    results = []
    for name, patterns in COMPONENTS.items():
        paths = _expand(root, patterns)
        if name != "weaving-rules":
            paths -= weaving  # a file counts in one component
        counts = [_count_file(path) for path in sorted(paths)]
        results.append(
            ComponentSize(
                name=name,
                files=len(counts),
                lines=sum(lines for lines, _code in counts),
                code_lines=sum(code for _lines, code in counts),
            )
        )
    return results
