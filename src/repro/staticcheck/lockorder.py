"""Lock-order pass: LK01 over the caching tier's nested lock scopes.

Extracts every ``with self._lock:`` / ``self._lock.acquire()`` scope
from the analysed classes, resolves the calls made *while the lock is
held* (including transitively: a method's acquired-lock closure is
computed to a fixpoint), and builds the static acquisition graph over
:data:`repro.locks.LOCK_ORDER` names.  Violations:

- an edge from a ranked lock to a strictly earlier-ranked lock
  (acquiring "invalidation-bus" while holding "cache-facade" inverts
  the documented order);
- any cycle in the graph, ranked or not (two unranked locks acquired in
  both orders deadlock just as surely).

The pass is sound only for acquisitions it can see; edges created
through late-bound callables (the invalidation bus invoking subscriber
closures) are invisible statically, which is exactly what the woven
dynamic mode (:mod:`repro.staticcheck.lockwatch`) exists to cover.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.locks import lock_rank
from repro.staticcheck.diagnostics import Diagnostic
from repro.staticcheck.source import (
    ClassInfo,
    FunctionSource,
    relative_to,
    scan_calls,
)
from repro.staticcheck.target import CheckTarget


@dataclass(frozen=True)
class Edge:
    """Lock ``held`` was held while ``acquired`` was acquired."""

    held: str
    acquired: str


def check_lock_order(target: CheckTarget) -> list[Diagnostic]:
    infos: dict[str, ClassInfo] = {}
    for klass in target.lock_classes:
        info = target.registry.info(klass.__name__)
        if info is not None:
            infos[info.name] = info

    closures = _acquisition_closures(target, infos)
    edges: dict[Edge, tuple[str, int, str]] = {}

    for info in infos.values():
        for fn in info.functions.values():
            _collect_edges(target, infos, closures, info, fn, edges)

    diagnostics: list[Diagnostic] = []
    for edge, (file, line, symbol) in sorted(
        edges.items(), key=lambda kv: (kv[1][0], kv[1][1])
    ):
        held_rank = lock_rank(edge.held)
        acquired_rank = lock_rank(edge.acquired)
        if (
            held_rank is not None
            and acquired_rank is not None
            and acquired_rank < held_rank
        ):
            diagnostics.append(
                Diagnostic(
                    rule="LK01",
                    file=file,
                    line=line,
                    symbol=symbol,
                    message=(
                        f"acquires {edge.acquired!r} (rank {acquired_rank}) "
                        f"while holding {edge.held!r} (rank {held_rank}); "
                        f"the documented order is the reverse"
                    ),
                )
            )

    diagnostics.extend(_cycle_diagnostics(edges))
    return diagnostics


def _acquisition_closures(
    target: CheckTarget, infos: dict[str, ClassInfo]
) -> dict[tuple[str, str], set[str]]:
    """(class, method) -> every lock name it may acquire, transitively."""
    direct: dict[tuple[str, str], set[str]] = {}
    calls: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for info in infos.values():
        for fn in info.functions.values():
            key = (info.name, fn.name)
            direct[key] = _direct_acquires(info, fn)
            callees: set[tuple[str, str]] = set()
            for site in scan_calls(info, fn, target.registry).sites:
                if site.method and site.receiver_type in infos:
                    callees.add((site.receiver_type, site.method))
            calls[key] = callees

    closures = {key: set(acquired) for key, acquired in direct.items()}
    changed = True
    while changed:
        changed = False
        for key, callees in calls.items():
            for callee in callees:
                extra = closures.get(callee, set()) - closures[key]
                if extra:
                    closures[key] |= extra
                    changed = True
    return closures


def _direct_acquires(info: ClassInfo, fn: FunctionSource) -> set[str]:
    acquired: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.With):
            for item in node.items:
                name = _lock_name(info, item.context_expr)
                if name is not None:
                    acquired.add(name)
        elif isinstance(node, ast.Call):
            name = _acquire_call(info, node)
            if name is not None:
                acquired.add(name)
    return acquired


def _lock_name(info: ClassInfo, expr: ast.expr) -> str | None:
    """``self.<attr>`` where the attribute holds a NamedRLock."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return info.attr_locks.get(expr.attr)
    return None


def _acquire_call(info: ClassInfo, call: ast.Call) -> str | None:
    """``self.<lock>.acquire(...)`` outside a ``with``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "acquire":
        return _lock_name(info, func.value)
    return None


def _collect_edges(
    target: CheckTarget,
    infos: dict[str, ClassInfo],
    closures: dict[tuple[str, str], set[str]],
    info: ClassInfo,
    fn: FunctionSource,
    edges: dict[Edge, tuple[str, int, str]],
) -> None:
    file = relative_to(fn.file, target.repo_root)
    symbol = f"{info.name}.{fn.name}"
    scan = scan_calls(info, fn, target.registry)
    resolved = {
        id(site.node): site
        for site in scan.sites
        if site.method is not None
    }

    def record(held: list[str], acquired: str, line: int) -> None:
        if acquired in held:
            # Re-acquiring a lock this scope already holds is reentrant
            # (NamedRLock wraps an RLock): it blocks nothing and orders
            # nothing, so it creates no edge.
            return
        for holder in held:
            edges.setdefault(
                Edge(held=holder, acquired=acquired), (file, line, symbol)
            )

    def callee_locks(call: ast.Call) -> set[str]:
        site = resolved.get(id(call))
        if site is None or site.receiver_type not in infos:
            return set()
        return closures.get((site.receiver_type, site.method), set())

    def visit(node: ast.AST, held: list[str]) -> None:
        if isinstance(node, ast.With):
            entered: list[str] = []
            for item in node.items:
                name = _lock_name(info, item.context_expr)
                if name is not None:
                    record(held + entered, name, item.context_expr.lineno)
                    entered.append(name)
                elif isinstance(item.context_expr, ast.Call):
                    # A call used as a context manager: its acquired
                    # locks are taken now and held for the body.
                    taken = callee_locks(item.context_expr)
                    for name in sorted(taken):
                        record(held + entered, name, item.context_expr.lineno)
                        entered.append(name)
            for stmt in node.body:
                visit(stmt, held + entered)
            return
        if isinstance(node, ast.Call):
            name = _acquire_call(info, node)
            if name is not None:
                record(held, name, node.lineno)
            else:
                for acquired in sorted(callee_locks(node)):
                    record(held, acquired, node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in fn.node.body:
        visit(stmt, [])


def _cycle_diagnostics(
    edges: dict[Edge, tuple[str, int, str]]
) -> list[Diagnostic]:
    graph: dict[str, set[str]] = {}
    for edge in edges:
        graph.setdefault(edge.held, set()).add(edge.acquired)
        graph.setdefault(edge.acquired, set())

    diagnostics: list[Diagnostic] = []
    reported: set[frozenset[str]] = set()
    path: list[str] = []
    on_path: set[str] = set()
    visited: set[str] = set()

    def dfs(node: str) -> None:
        visited.add(node)
        path.append(node)
        on_path.add(node)
        for succ in sorted(graph.get(node, ())):
            if succ in on_path:
                cycle = path[path.index(succ) :] + [succ]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    anchor = edges.get(Edge(held=node, acquired=succ))
                    file, line, symbol = anchor or ("?", 0, "?")
                    diagnostics.append(
                        Diagnostic(
                            rule="LK01",
                            file=file,
                            line=line,
                            symbol=symbol,
                            message=(
                                "lock acquisition cycle: "
                                + " -> ".join(cycle)
                                + " (deadlock under concurrent entry)"
                            ),
                        )
                    )
            elif succ not in visited:
                dfs(succ)
        path.pop()
        on_path.discard(node)

    for node in sorted(graph):
        if node not in visited:
            dfs(node)
    return diagnostics
