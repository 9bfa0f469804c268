"""Source indexing for the static passes.

Works from *runtime class objects* (the same things the weaver sees)
back to their AST: for each class the defining source is parsed once,
methods are collected across the MRO (most-derived definition wins),
and a light attribute/return type inference is built from constructor
parameter annotations, ``self.x = ClassName(...)`` assignments, and
method return annotations.  That is deliberately shallow -- the servlet
code under analysis is straight-line JDBC-style code, and the paper's
point is exactly that such code is amenable to static treatment.

Woven classes index identically to unwoven ones: the AST comes from the
file, which always holds the original method bodies.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

#: Modules whose call results are non-deterministic per request: the
#: cacheability pass treats any ``<module>.f(...)`` call through these
#: names as an entropy source (RC02).
ENTROPY_MODULES = frozenset({"random", "time", "datetime", "uuid", "secrets"})

#: Attribute/method names whose access derives content from the user
#: session rather than the request parameters (session state is not part
#: of the cache key, so it is hidden state).
SESSION_SOURCES = frozenset({"session", "get_session"})


@dataclass(frozen=True)
class FunctionSource:
    """One method's AST, anchored to its defining file."""

    owner: type
    name: str
    file: str
    node: ast.FunctionDef

    @property
    def line(self) -> int:
        return self.node.lineno


def _type_name(node: ast.AST | None) -> str | None:
    """Best-effort simple type name from an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the trailing identifier.
        return node.value.strip("'\"").split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # X | None -> X
        left = _type_name(node.left)
        if left not in (None, "None"):
            return left
        return _type_name(node.right)
    if isinstance(node, ast.Subscript):
        base = _type_name(node.value)
        if base == "Optional":
            return _type_name(node.slice)
        return base
    return None


_CLASS_NODE_CACHE: dict[type, tuple[str, ast.ClassDef] | None] = {}


def class_node(cls: type) -> tuple[str, ast.ClassDef] | None:
    """(file, ClassDef with absolute line numbers) for ``cls``, or None
    when the class has no reachable Python source."""
    if cls in _CLASS_NODE_CACHE:
        return _CLASS_NODE_CACHE[cls]
    result: tuple[str, ast.ClassDef] | None = None
    try:
        file = inspect.getsourcefile(cls)
        lines, start = inspect.getsourcelines(cls)
        tree = ast.parse(textwrap.dedent("".join(lines)))
        node = tree.body[0]
        if file is not None and isinstance(node, ast.ClassDef):
            ast.increment_lineno(node, start - 1)
            result = (file, node)
    except (OSError, TypeError, SyntaxError):
        result = None
    _CLASS_NODE_CACHE[cls] = result
    return result


@dataclass
class ClassInfo:
    """Everything the passes need to know about one class."""

    cls: type
    functions: dict[str, FunctionSource] = field(default_factory=dict)
    #: self.<attr> -> inferred type name
    attr_types: dict[str, str] = field(default_factory=dict)
    #: method -> return annotation type name
    returns: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.cls.__name__

    @classmethod
    def from_class(cls, klass: type) -> "ClassInfo":
        info = cls(cls=klass)
        for base in reversed(klass.__mro__):
            if base is object:
                continue
            located = class_node(base)
            if located is None:
                continue
            file, node = located
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.functions[item.name] = FunctionSource(
                        owner=base, name=item.name, file=file, node=item
                    )
                    returned = _type_name(item.returns)
                    if returned:
                        info.returns[item.name] = returned
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    # Class-level annotated attribute (dataclass field).
                    annotated = _type_name(item.annotation)
                    if annotated:
                        info.attr_types[item.target.id] = annotated
            init = info.functions.get("__init__")
            if init is not None and init.owner is base:
                info._scan_init(init)
        return info

    def _scan_init(self, init: FunctionSource) -> None:
        params: dict[str, str] = {}
        for arg in init.node.args.args + init.node.args.kwonlyargs:
            annotated = _type_name(arg.annotation)
            if annotated:
                params[arg.arg] = annotated
        for stmt in ast.walk(init.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    annotated = _type_name(stmt.annotation)
                    if annotated:
                        self.attr_types[target.attr] = annotated
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            if isinstance(value, ast.Name) and value.id in params:
                self.attr_types.setdefault(attr, params[value.id])
            elif isinstance(value, ast.Call) and isinstance(
                value.func, ast.Name
            ):
                self.attr_types.setdefault(attr, value.func.id)


class TypeRegistry:
    """Name -> :class:`ClassInfo` lookup over the classes under check."""

    def __init__(self, classes: tuple[type, ...] = ()) -> None:
        self._classes: dict[str, type] = {}
        self._infos: dict[str, ClassInfo] = {}
        self._by_class: dict[type, ClassInfo] = {}
        for klass in classes:
            self.add(klass)

    def add(self, klass: type) -> None:
        self._classes.setdefault(klass.__name__, klass)

    def info(self, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        cached = self._infos.get(name)
        if cached is not None:
            return cached
        klass = self._classes.get(name)
        if klass is None:
            return None
        info = ClassInfo.from_class(klass)
        self._infos[name] = info
        return info

    def info_for(self, klass: type) -> ClassInfo:
        """Lookup by class *identity*: names collide across apps (both
        benchmarks define a ``Home`` servlet), and under name lookup
        the first registration silently shadowed the second, so one
        app's servlet was never scanned."""
        if self._classes.get(klass.__name__) is klass:
            info = self.info(klass.__name__)
            assert info is not None
            return info
        cached = self._by_class.get(klass)
        if cached is None:
            cached = ClassInfo.from_class(klass)
            self._by_class[klass] = cached
        return cached


class ExprTyper:
    """Infers simple type names for expressions inside one method."""

    def __init__(
        self,
        cls_info: ClassInfo,
        fn: FunctionSource,
        registry: TypeRegistry,
    ) -> None:
        self.cls_info = cls_info
        self.registry = registry
        self.locals: dict[str, str] = {}
        for arg in fn.node.args.args + fn.node.args.kwonlyargs:
            annotated = _type_name(arg.annotation)
            if annotated:
                self.locals[arg.arg] = annotated

    def infer(self, expr: ast.expr | None) -> str | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.cls_info.name
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                # Resolve self.<attr> against the class actually being
                # scanned, not a name lookup (which a same-named class
                # in the other app could shadow).
                owner: ClassInfo | None = self.cls_info
            else:
                owner = self.registry.info(self.infer(expr.value))
            if owner is None:
                return None
            return owner.attr_types.get(expr.attr) or owner.returns.get(
                expr.attr
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if self.registry.info(func.id) is not None:
                    return func.id  # constructor call
                return None
            if isinstance(func, ast.Attribute):
                owner = self.registry.info(self.infer(func.value))
                if owner is None:
                    return None
                return owner.returns.get(func.attr)
        return None

    def assign(self, stmt: ast.Assign) -> None:
        inferred = self.infer(stmt.value)
        if inferred is None:
            return
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.locals[target.id] = inferred


@dataclass(frozen=True)
class CallSite:
    """One call expression, with its receiver resolved where possible."""

    line: int
    method: str | None  # attribute name for <recv>.m(...) calls
    receiver_type: str | None  # resolved type of the receiver
    bare_receiver: str | None  # unresolved Name receiver (e.g. 'random')
    func_name: str | None  # f(...) bare-name calls
    node: ast.Call


@dataclass
class FunctionScan:
    """The call sites of one method plus the environments built scanning it."""

    sites: list[CallSite]
    typer: ExprTyper
    #: local name -> string constant assigned to it (for SQL passed via
    #: a variable instead of inline)
    constants: dict[str, str]


def scan_calls(
    cls_info: ClassInfo, fn: FunctionSource, registry: TypeRegistry
) -> FunctionScan:
    """Every call in ``fn`` in source order, with receiver types resolved
    against the locals environment built up to that point."""
    typer = ExprTyper(cls_info, fn, registry)
    sites: list[CallSite] = []
    constants: dict[str, str] = {}

    class Scanner(ast.NodeVisitor):
        def visit_Assign(self, node: ast.Assign) -> None:
            self.generic_visit(node)
            typer.assign(node)
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value.value

        def visit_Call(self, node: ast.Call) -> None:
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = typer.infer(func.value)
                bare = (
                    func.value.id
                    if isinstance(func.value, ast.Name) and receiver is None
                    else None
                )
                sites.append(
                    CallSite(
                        line=node.lineno,
                        method=func.attr,
                        receiver_type=receiver,
                        bare_receiver=bare,
                        func_name=None,
                        node=node,
                    )
                )
            elif isinstance(func, ast.Name):
                sites.append(
                    CallSite(
                        line=node.lineno,
                        method=None,
                        receiver_type=None,
                        bare_receiver=None,
                        func_name=func.id,
                        node=node,
                    )
                )
            self.generic_visit(node)

    scanner = Scanner()
    for stmt in fn.node.body:
        scanner.visit(stmt)
    return FunctionScan(sites=sites, typer=typer, constants=constants)


def string_constant(
    node: ast.expr | None, constants: dict[str, str]
) -> str | None:
    """Resolve an argument to a string constant: literal or a local
    assigned one earlier in the function."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def relative_to(file: str, root: Path) -> str:
    """Repo-relative, '/'-separated path (falls back to the input)."""
    try:
        return Path(file).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return Path(file).as_posix()
