"""Cacheability pass: RC01..RC04 and RC06 over the servlet classes.

Walks the call graph reachable from each registered handler
(``do_get``/``do_post``) through ``self.*`` helper methods, extracts the
SQL string templates flowing into the woven driver, and checks the
preconditions of the paper's consistency protocol:

- **RC01** -- a *write* reachable from a cacheable ``do_get``: the read
  aspect would cache a page whose computation mutated the database (the
  write aspect only invalidates after ``do_post``).
- **RC02** -- a non-deterministic source (``random``/``time``-style
  modules, an entropy-holding collaborator such as the TPC-W
  ``AdRotator``, or session-derived content) feeding a cached body: the
  paper's hidden-state problem; the page is not a function of its URI.
- **RC03** -- database access whose receiver is not the woven
  ``Statement``: the consistency aspect never sees the query, so its
  dependencies/invalidations are silently lost.
- **RC04** -- a read template with no equality-bound placeholder
  position *and* no column-disjointness plan: ``repro.cache.analysis``
  can neither index it nor (because its lineage is inexact or covers
  its tables' full width) prune any overlapping write by column
  disjointness, so every overlapping write degenerates to a
  per-template scan of all cached instances.
- **RC06** -- a dead write: a ``do_post`` UPDATE whose SET columns
  appear in no reachable read template's lineage read set (unioned per
  app, plus the method-cache targets).  Such a write can never doom a
  cached entry -- either the column is dead weight or a read that
  should depend on it bypasses registration.  The union is widened to
  "everything" by any read the checker cannot resolve (non-constant
  SQL, parse failure), silencing the rule rather than guessing.

Fragmented pages (``AppSpec.fragmented_uris``) are uncacheable whole
but cached per-fragment, so the read rules apply to them again -- with
the *hole exemption* for RC02: a site lexically inside a ``hole(...)``
render thunk (or in a helper reachable only through hole thunks) is
recomputed on every request and never enters a cached body, so entropy
there is exactly how hidden state is supposed to be expressed.  A
``fragment(...)`` thunk re-enters the cacheable surface, including one
nested inside a hole.
"""

from __future__ import annotations

import ast

from repro.sql.lineage import compute_lineage
from repro.sql.template import prepare
from repro.staticcheck.diagnostics import Diagnostic
from repro.staticcheck.source import (
    ENTROPY_MODULES,
    SESSION_SOURCES,
    ClassInfo,
    FunctionSource,
    relative_to,
    scan_calls,
    string_constant,
)
from repro.staticcheck.target import CheckTarget

#: Call names that execute SQL when sent to a non-woven receiver.
_SQL_EXECUTORS = frozenset(
    {"execute_query", "execute_update", "execute", "query", "execute_statement"}
)
_WRITE_EXECUTORS = frozenset({"execute_update"})
_HANDLERS = ("do_get", "do_post")

#: The composer boundary functions (repro.apps.html): called either as
#: module-level helpers or as PageComposer methods.
_COMPOSER_CALLS = frozenset({"fragment", "hole"})


def check_cacheability(target: CheckTarget) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for app in target.apps:
        for uri, servlet_cls, is_write in app.interactions:
            info = target.registry.info_for(servlet_cls)
            # Fragmented pages are never cached whole but their
            # fragments are, so the read rules re-apply to them.
            cacheable = not is_write and (
                uri in app.fragmented_uris or uri not in app.uncacheable_uris
            )
            diagnostics.extend(
                _check_servlet(target, info, cacheable=cacheable)
            )
        diagnostics.extend(_check_dead_writes(target, app))
    return _dedupe(diagnostics)


def _check_servlet(
    target: CheckTarget, info: ClassInfo, cacheable: bool
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for handler in _HANDLERS:
        entry = info.functions.get(handler)
        if entry is None or entry.owner.__module__.startswith("repro.web"):
            continue  # not defined by the app (default 405 handler)
        for fn, confined in _reachable(info, entry):
            diagnostics.extend(
                _check_function(target, info, handler, fn, cacheable, confined)
            )
    return diagnostics


def _composer_call_name(node: ast.Call) -> str | None:
    """``'fragment'``/``'hole'`` if the call is a composer boundary."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _COMPOSER_CALLS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _COMPOSER_CALLS:
        return func.attr
    return None


def _boundary_states(fn: FunctionSource) -> dict[int, str]:
    """``id(node) -> innermost composer boundary`` for every node that
    sits inside the arguments of a ``hole(...)``/``fragment(...)`` call.

    The innermost boundary wins: a ``fragment(...)`` thunk nested in a
    hole re-enters the cacheable surface, and vice versa.
    """
    states: dict[int, str] = {}

    def visit(node: ast.AST, state: str | None) -> None:
        if state is not None:
            states[id(node)] = state
        if isinstance(node, ast.Call):
            boundary = _composer_call_name(node)
            if boundary is not None:
                visit(node.func, state)
                for arg in node.args:
                    visit(arg, boundary)
                for keyword in node.keywords:
                    visit(keyword, boundary)
                return
        for child in ast.iter_child_nodes(node):
            visit(child, state)

    visit(fn.node, None)
    return states


def _reachable(
    info: ClassInfo, entry: FunctionSource
) -> list[tuple[FunctionSource, bool]]:
    """``entry`` plus every ``self.*`` method transitively called, each
    with a *confined* flag: True iff every call path from the handler
    into it passes through a ``hole(...)`` thunk without re-entering
    through a ``fragment(...)`` one.  A confined helper renders per
    request and never feeds a cached body.
    """
    seen: dict[str, FunctionSource] = {entry.name: entry}
    edges: list[tuple[str, str, str | None]] = []
    queue = [entry]
    while queue:
        fn = queue.pop()
        states = _boundary_states(fn)
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                callee = info.functions.get(node.func.attr)
                if callee is None:
                    continue
                edges.append((fn.name, callee.name, states.get(id(node))))
                if callee.name not in seen:
                    seen[callee.name] = callee
                    queue.append(callee)
    # Fixpoint over the call edges, monotonically True -> False: the
    # entry is unconfined; an edge confines its callee only if the call
    # site is in a hole ("fragment" re-enters cacheable; a plain call
    # inherits the caller's confinement).
    confined = {name: name != entry.name for name in seen}
    changed = True
    while changed:
        changed = False
        for caller, callee, state in edges:
            if state == "hole":
                edge_confined = True
            elif state == "fragment":
                edge_confined = False
            else:
                edge_confined = confined[caller]
            if not edge_confined and confined[callee]:
                confined[callee] = False
                changed = True
    return [(fn, confined[name]) for name, fn in seen.items()]


def _check_function(
    target: CheckTarget,
    info: ClassInfo,
    handler: str,
    fn: FunctionSource,
    cacheable: bool,
    confined: bool = False,
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    file = relative_to(fn.file, target.repo_root)
    symbol = f"{info.name}.{handler}"
    scan = scan_calls(info, fn, target.registry)
    check_reads = cacheable and handler == "do_get"
    states = _boundary_states(fn)

    for site in scan.sites:
        # --- RC03: SQL through a non-woven receiver (always checked;
        # a bypassed *write* breaks every cached page's invalidation,
        # a bypassed read breaks this page's dependencies).
        if (
            site.method in _SQL_EXECUTORS
            and site.receiver_type is not None
            and site.receiver_type not in target.woven_sql_types
        ):
            diagnostics.append(
                Diagnostic(
                    rule="RC03",
                    file=file,
                    line=site.line,
                    symbol=symbol,
                    message=(
                        f"{site.receiver_type}.{site.method}(...) reaches "
                        f"the database without passing through the woven "
                        f"Statement; the consistency aspect cannot see it"
                    ),
                )
            )
            continue
        if site.method in _SQL_EXECUTORS and site.receiver_type is None:
            # Unresolvable receiver executing SQL-looking calls: only
            # flag when it carries a SQL string (avoids false positives
            # on unrelated .execute() APIs).
            sql = _sql_of(site.node, scan.constants)
            if sql is not None and site.bare_receiver is not None:
                diagnostics.append(
                    Diagnostic(
                        rule="RC03",
                        file=file,
                        line=site.line,
                        symbol=symbol,
                        message=(
                            f"{site.bare_receiver}.{site.method}(...) "
                            f"executes SQL through an unrecognised "
                            f"receiver (not the woven Statement)"
                        ),
                    )
                )
                continue

        woven_sql = (
            site.method in _SQL_EXECUTORS
            and site.receiver_type in target.woven_sql_types
        )

        # --- RC01: writes reachable from a cacheable do_get.
        if check_reads and woven_sql:
            sql = _sql_of(site.node, scan.constants)
            is_write_stmt = site.method in _WRITE_EXECUTORS
            if not is_write_stmt and sql is not None:
                template = _try_template(sql)
                is_write_stmt = template is not None and template.is_write
            if is_write_stmt:
                diagnostics.append(
                    Diagnostic(
                        rule="RC01",
                        file=file,
                        line=site.line,
                        symbol=symbol,
                        message=(
                            "database write reachable from a cacheable "
                            "do_get; the read aspect would cache a page "
                            "whose computation mutated the database"
                        ),
                    )
                )
                continue

        # --- RC04: unindexable read templates.
        if (
            check_reads
            and woven_sql
            and site.method not in _WRITE_EXECUTORS
        ):
            sql = _sql_of(site.node, scan.constants)
            if sql is not None:
                template = _try_template(sql)
                if template is None:
                    diagnostics.append(
                        Diagnostic(
                            rule="RC04",
                            file=file,
                            line=site.line,
                            symbol=symbol,
                            message=(
                                "read query cannot be parsed into a "
                                "template; invalidation falls back to "
                                "full scans"
                            ),
                        )
                    )
                elif (
                    template.is_read
                    and not template.indexable_positions
                    and not _column_plan_exists(template, target.catalog)
                ):
                    tables = ", ".join(sorted(template.tables)) or "?"
                    diagnostics.append(
                        Diagnostic(
                            rule="RC04",
                            file=file,
                            line=site.line,
                            symbol=symbol,
                            message=(
                                f"read template over [{tables}] has no "
                                f"equality-bound position and no "
                                f"column-disjointness plan; the "
                                f"dependency table cannot index its "
                                f"instances and the lineage prune "
                                f"cannot skip any overlapping write "
                                f"(per-template scan on every one)"
                            ),
                        )
                    )

        # --- RC02: entropy flowing into a cacheable body.  The hole
        # exemption: a site inside a hole(...) thunk (or in a helper
        # reachable only through holes) renders per request and never
        # enters a cached body -- that is the sanctioned place for
        # hidden state on a fragmented page.
        state = states.get(id(site.node))
        in_hole = state == "hole" or (state is None and confined)
        if check_reads and not in_hole:
            entropy = _entropy_source(site, target)
            if entropy is not None:
                diagnostics.append(
                    Diagnostic(
                        rule="RC02",
                        file=file,
                        line=site.line,
                        symbol=symbol,
                        message=(
                            f"non-deterministic source ({entropy}) in a "
                            f"cacheable do_get: the response is not a "
                            f"function of the request (hidden state)"
                        ),
                    )
                )
    return diagnostics


def _entropy_source(site, target: CheckTarget) -> str | None:
    if site.receiver_type in target.entropy_classes:
        return f"{site.receiver_type}.{site.method}"
    if site.bare_receiver in ENTROPY_MODULES:
        return f"{site.bare_receiver}.{site.method}"
    if site.method in SESSION_SOURCES:
        return f"session state via .{site.method}"
    return None


def _sql_of(call: ast.Call, constants: dict[str, str]) -> str | None:
    if not call.args:
        return None
    text = string_constant(call.args[0], constants)
    if text is None:
        return None
    head = text.lstrip().split(None, 1)
    if not head:
        return None
    if head[0].upper() in {"SELECT", "INSERT", "UPDATE", "DELETE"}:
        return text
    return None


def _try_template(sql: str):
    try:
        return prepare(sql).template
    except Exception:
        return None


def _column_plan_exists(template, catalog) -> bool:
    """True when exact lineage proves a column-disjointness plan exists.

    Requires the catalog to know every referenced table, the lineage
    read set to be exact (no wildcard/spill entries), and at least one
    table to have a writable column outside the read set -- the
    condition under which :class:`repro.cache.analysis.ColumnPruneRule`
    skips some overlapping write without a scan.
    """
    if catalog is None:
        return False
    lineage = compute_lineage(template.statement, catalog)
    if not lineage.exact or not lineage.tables:
        return False
    narrower = False
    for table in lineage.tables:
        width = catalog.columns_of(table)
        if width is None:
            return False
        read = {c for t, c in lineage.read_set if t == table}
        if read - width:
            # Reads a column the schema does not declare: the catalog
            # and the template disagree; make no static claim.
            return False
        if width - read:
            narrower = True
    return narrower


#: The "reads everything" element: unioned in whenever a read cannot be
#: resolved, so the dead-write rule goes silent instead of guessing.
_READS_EVERYTHING = ("?", "*")


def _handler_sql_sites(target: CheckTarget, info: ClassInfo, handler: str):
    """Yield ``(fn, site, sql)`` for every SQL-executor call site
    reachable from ``info.<handler>`` -- ``sql`` is None when the first
    argument is not a resolvable string constant."""
    entry = info.functions.get(handler)
    if entry is None or entry.owner.__module__.startswith("repro.web"):
        return
    for fn, _confined in _reachable(info, entry):
        scan = scan_calls(info, fn, target.registry)
        for site in scan.sites:
            if site.method not in _SQL_EXECUTORS:
                continue
            yield fn, site, _sql_of(site.node, scan.constants)


def _app_read_union(
    target: CheckTarget, app
) -> frozenset[tuple[str, str]]:
    """The lineage read sets of every read template reachable from any
    of ``app``'s handlers, unioned.

    Holes and uncacheable pages are included on purpose: the union errs
    toward "is read somewhere", never toward a false dead-write.  A
    non-constant or unparseable SQL argument at an executor site widens
    the union to :data:`_READS_EVERYTHING`.
    """
    union: set[tuple[str, str]] = set()
    sources = [
        (target.registry.info_for(servlet_cls), handler)
        for servlet_cls in _app_servlets(app)
        for handler in _HANDLERS
    ]
    for info, handler in sources:
        for _fn, site, sql in _handler_sql_sites(target, info, handler):
            if sql is None:
                if site.node.args:
                    # An executor call whose SQL the checker cannot
                    # read: it may read anything.
                    union.add(_READS_EVERYTHING)
                continue
            template = _try_template(sql)
            if template is None:
                union.add(_READS_EVERYTHING)
                continue
            if template.is_read:
                union |= compute_lineage(
                    template.statement, target.catalog
                ).read_set
    return frozenset(union)


def _app_servlets(app) -> list[type]:
    seen: set[type] = set()
    ordered: list[type] = []
    for _uri, servlet_cls, _is_write in app.interactions:
        if servlet_cls not in seen:
            seen.add(servlet_cls)
            ordered.append(servlet_cls)
    return ordered


def _covers(
    union: frozenset[tuple[str, str]], table: str, column: str
) -> bool:
    """May any read in ``union`` observe ``table.column``?"""
    return any(
        (t == table or t == "?") and (c == "*" or c == column)
        for t, c in union
    )


def _check_dead_writes(target: CheckTarget, app) -> list[Diagnostic]:
    """RC06: do_post UPDATEs whose SET columns no registered read uses.

    Restricted to UPDATE statements with fully-resolved SET columns:
    INSERT/DELETE change row *existence*, which every predicate over
    the table can observe regardless of columns.  Writes through
    non-woven receivers are RC03's finding, not a dead write.
    """
    union = _app_read_union(target, app)
    if _READS_EVERYTHING in union:
        return []
    diagnostics: list[Diagnostic] = []
    for servlet_cls in _app_servlets(app):
        info = target.registry.info_for(servlet_cls)
        for fn, site, sql in _handler_sql_sites(target, info, "do_post"):
            if (
                site.receiver_type is not None
                and site.receiver_type not in target.woven_sql_types
            ):
                continue
            if sql is None:
                continue
            template = _try_template(sql)
            if template is None or not template.is_write:
                continue
            write_info = template.info
            if write_info.kind != "update":
                continue
            written = write_info.columns_written
            if not written or any(c == "*" for _t, c in written):
                continue
            if any(_covers(union, t, c) for t, c in written):
                continue
            columns = ", ".join(sorted(c for _t, c in written))
            tables = ", ".join(sorted(t for t, _c in written))
            diagnostics.append(
                Diagnostic(
                    rule="RC06",
                    file=relative_to(fn.file, target.repo_root),
                    line=site.line,
                    symbol=f"{info.name}.do_post",
                    message=(
                        f"UPDATE {tables} sets only [{columns}], which "
                        f"no reachable read template's lineage read set "
                        f"contains; this write can never invalidate a "
                        f"cached entry"
                    ),
                )
            )
    return diagnostics


def lineage_summary(target: CheckTarget) -> dict[str, int]:
    """Counters for the check report's ``lineage`` section: how many
    read templates the pass saw, how many have exact lineage, how many
    earn the RC04 column-disjointness exemption, and the catalog size.
    """
    templates = 0
    exact = 0
    column_plans = 0
    seen: set[str] = set()
    for app in target.apps:
        for servlet_cls in _app_servlets(app):
            info = target.registry.info_for(servlet_cls)
            for handler in _HANDLERS:
                for _fn, _site, sql in _handler_sql_sites(
                    target, info, handler
                ):
                    if sql is None:
                        continue
                    template = _try_template(sql)
                    if (
                        template is None
                        or not template.is_read
                        or template.text in seen
                    ):
                        continue
                    seen.add(template.text)
                    templates += 1
                    lineage = compute_lineage(
                        template.statement, target.catalog
                    )
                    if lineage.exact:
                        exact += 1
                    if _column_plan_exists(template, target.catalog):
                        column_plans += 1
    return {
        "read_templates": templates,
        "exact_lineage": exact,
        "column_disjointness_plans": column_plans,
        "catalog_tables": (
            len(target.catalog) if target.catalog is not None else 0
        ),
    }


def _dedupe(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    seen: set[tuple[str, str, int, str]] = set()
    unique: list[Diagnostic] = []
    for diagnostic in diagnostics:
        key = (
            diagnostic.rule,
            diagnostic.file,
            diagnostic.line,
            diagnostic.symbol,
        )
        if key not in seen:
            seen.add(key)
            unique.append(diagnostic)
    return unique
