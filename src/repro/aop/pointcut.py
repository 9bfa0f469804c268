"""Pointcut expression language.

Grammar (a practical subset of AspectJ's)::

    pointcut   := or_expr
    or_expr    := and_expr ('||' and_expr)*
    and_expr   := unary ('&&' unary)*
    unary      := '!' unary | '(' pointcut ')' | primitive
    primitive  := ('execution' | 'call') '(' type_pat '.' name_pat args ')'
    type_pat   := NAME_WITH_WILDCARDS ['+']
    name_pat   := NAME_WITH_WILDCARDS
    args       := '(..)' | '(' ')' | '(' name (',' name)* ')'

``+`` extends a type pattern to subclasses (matched against the target
class's MRO).  ``*`` in names matches any run of characters.  Explicit
argument lists constrain the *positional arity* of the method (parameter
names/types are not checked -- Python is dynamically typed); ``(..)``
matches any arity.

In AspectJ, ``execution`` and ``call`` designate the callee-side and
caller-side join points respectively.  Under load-time method wrapping
both attach to the method object itself, so this framework treats them
identically; both spellings are accepted because the paper's weaving
rules use both (Figures 9 and 12).
"""

from __future__ import annotations

import fnmatch
import inspect
import re
from dataclasses import dataclass
from typing import Callable

from repro.errors import PointcutSyntaxError


@dataclass(frozen=True)
class MethodTarget:
    """A candidate join point presented to pointcut matching."""

    cls: type
    method_name: str
    function: object

    @property
    def mro_names(self) -> tuple[str, ...]:
        return tuple(klass.__name__ for klass in self.cls.__mro__)


class Pointcut:
    """Base class for pointcut matchers.

    Matching has a static part (``matches``: can this advice possibly
    apply to this method? decided at weave time) and a dynamic part
    (does it apply to *this invocation*, given the join points
    currently executing below it?).  ``cflowbelow`` is the only dynamic
    primitive, mirroring AspectJ (the paper's footnote 2 uses it to
    capture only the top-level handler when do_get/do_post interleave),
    so the dynamic part is never evaluated against a stack: ``residue``
    decides everything static for one join point and leaves a test on
    the weaver's observer bitmask.
    """

    #: True when any sub-pointcut depends on the runtime call stack.
    is_dynamic: bool = False

    def matches(self, target: MethodTarget) -> bool:
        raise NotImplementedError

    def residue(
        self, target: MethodTarget, bit_of: Callable[["Pointcut"], int]
    ) -> "bool | Residue":
        """This pointcut partially evaluated against one join point.

        ``True``/``False`` when ``target`` decides it; otherwise the
        :class:`Residue` left over the ``cflowbelow`` sub-pointcuts,
        with ``bit_of(p)`` naming the observer-mask bit that is set
        while a join point matching ``p`` executes below."""
        return self.matches(target)

    def cflow_observed(self) -> tuple["Pointcut", ...]:
        """The sub-pointcuts whose join points some ``cflowbelow`` in
        this expression inspects on the control-flow stack.

        The weaver uses this to decide which woven methods must push a
        stack frame even when none of their own advice is active."""
        return ()

    def explain(self, target: MethodTarget, indent: int = 0) -> str:
        """Human-readable account of why this pointcut does or does not
        statically match ``target``, one line per sub-expression.

        Used by the static coverage checker's reports and handy at a
        REPL when a pointcut unexpectedly matches nothing; the dynamic
        part (``cflowbelow``) is reported as such, since it cannot be
        decided without a call stack."""
        mark = "matches" if self.matches(target) else "no match"
        return f"{'  ' * indent}{mark}: {self}"

    def __and__(self, other: "Pointcut") -> "Pointcut":
        return _And(self, other)

    def __or__(self, other: "Pointcut") -> "Pointcut":
        return _Or(self, other)

    def __invert__(self) -> "Pointcut":
        return _Not(self)


@dataclass(frozen=True)
class Residue:
    """What is left of a pointcut once one join point decided its
    static part: a test on the weaver's observer bitmask."""

    #: The mask bits ``test`` reads (two masks equal on these bits get
    #: the same answer, so the weaver keys its chain table on them).
    bits: int
    test: Callable[[int], bool]


@dataclass(frozen=True)
class ExecutionPointcut(Pointcut):
    """``execution(Type[+].name(args))`` primitive."""

    type_pattern: str
    include_subtypes: bool
    method_pattern: str
    arity: int | None  # None means "(..)": any arity

    def matches(self, target: MethodTarget) -> bool:
        if not fnmatch.fnmatchcase(target.method_name, self.method_pattern):
            return False
        if not self._type_matches(target):
            return False
        if self.arity is None:
            return True
        return _positional_arity(target.function) == self.arity

    def _type_matches(self, target: MethodTarget) -> bool:
        if self.include_subtypes:
            return any(
                fnmatch.fnmatchcase(name, self.type_pattern)
                for name in target.mro_names
            )
        return fnmatch.fnmatchcase(target.cls.__name__, self.type_pattern)

    def explain(self, target: MethodTarget, indent: int = 0) -> str:
        pad = "  " * indent
        failures = []
        if not fnmatch.fnmatchcase(target.method_name, self.method_pattern):
            failures.append(
                f"method {target.method_name!r} != pattern {self.method_pattern!r}"
            )
        if not self._type_matches(target):
            scope = "MRO " + repr(list(target.mro_names)) if self.include_subtypes \
                else f"class {target.cls.__name__!r}"
            failures.append(f"{scope} != type pattern {self.type_pattern!r}")
        if self.arity is not None:
            actual = _positional_arity(target.function)
            if actual != self.arity:
                failures.append(f"arity {actual} != declared {self.arity}")
        if not failures:
            return f"{pad}matches: {self}"
        return f"{pad}no match: {self} [{'; '.join(failures)}]"

    def __str__(self) -> str:
        plus = "+" if self.include_subtypes else ""
        args = ".." if self.arity is None else ", ".join(["*"] * self.arity)
        return f"execution({self.type_pattern}{plus}.{self.method_pattern}({args}))"


@dataclass(frozen=True)
class Cflowbelow(Pointcut):
    """``cflowbelow(p)``: true when a join point matching ``p`` is
    currently executing below this one.

    Statically it matches every method (the constraint is purely
    dynamic): its residue is one bit of the observer mask the weaver
    carries with its control-flow stack.
    """

    inner: Pointcut

    @property
    def is_dynamic(self) -> bool:  # type: ignore[override]
        return True

    def matches(self, target: MethodTarget) -> bool:
        return True

    def residue(
        self, target: MethodTarget, bit_of: Callable[[Pointcut], int]
    ) -> "Residue":
        bit = bit_of(self.inner)
        return Residue(bit, lambda mask: mask & bit != 0)

    def cflow_observed(self) -> tuple[Pointcut, ...]:
        return (self.inner,) + self.inner.cflow_observed()

    def explain(self, target: MethodTarget, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}matches statically (dynamic): {self} "
            f"[decided per invocation against the call stack]"
        )

    def __str__(self) -> str:
        return f"cflowbelow({self.inner})"


@dataclass(frozen=True)
class _And(Pointcut):
    left: Pointcut
    right: Pointcut

    @property
    def is_dynamic(self) -> bool:  # type: ignore[override]
        return self.left.is_dynamic or self.right.is_dynamic

    def matches(self, target: MethodTarget) -> bool:
        return self.left.matches(target) and self.right.matches(target)

    def residue(
        self, target: MethodTarget, bit_of: Callable[[Pointcut], int]
    ) -> "bool | Residue":
        left = self.left.residue(target, bit_of)
        right = self.right.residue(target, bit_of)
        if left is False or right is False:
            return False
        if left is True:
            return right
        if right is True:
            return left
        return Residue(
            left.bits | right.bits,
            lambda mask: left.test(mask) and right.test(mask),
        )

    def cflow_observed(self) -> tuple[Pointcut, ...]:
        return self.left.cflow_observed() + self.right.cflow_observed()

    def explain(self, target: MethodTarget, indent: int = 0) -> str:
        pad = "  " * indent
        head = "matches" if self.matches(target) else "no match"
        return "\n".join(
            [
                f"{pad}{head}: &&",
                self.left.explain(target, indent + 1),
                self.right.explain(target, indent + 1),
            ]
        )

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


@dataclass(frozen=True)
class _Or(Pointcut):
    left: Pointcut
    right: Pointcut

    @property
    def is_dynamic(self) -> bool:  # type: ignore[override]
        return self.left.is_dynamic or self.right.is_dynamic

    def matches(self, target: MethodTarget) -> bool:
        return self.left.matches(target) or self.right.matches(target)

    def residue(
        self, target: MethodTarget, bit_of: Callable[[Pointcut], int]
    ) -> "bool | Residue":
        left = self.left.residue(target, bit_of)
        right = self.right.residue(target, bit_of)
        if left is True or right is True:
            return True
        if left is False:
            return right
        if right is False:
            return left
        return Residue(
            left.bits | right.bits,
            lambda mask: left.test(mask) or right.test(mask),
        )

    def cflow_observed(self) -> tuple[Pointcut, ...]:
        return self.left.cflow_observed() + self.right.cflow_observed()

    def explain(self, target: MethodTarget, indent: int = 0) -> str:
        pad = "  " * indent
        head = "matches" if self.matches(target) else "no match"
        return "\n".join(
            [
                f"{pad}{head}: ||",
                self.left.explain(target, indent + 1),
                self.right.explain(target, indent + 1),
            ]
        )

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


@dataclass(frozen=True)
class _Not(Pointcut):
    inner: Pointcut

    @property
    def is_dynamic(self) -> bool:  # type: ignore[override]
        return self.inner.is_dynamic

    def matches(self, target: MethodTarget) -> bool:
        # A negated *dynamic* pointcut cannot be refuted at weave time:
        # keep the join point and decide per invocation.
        if self.inner.is_dynamic:
            return True
        return not self.inner.matches(target)

    def residue(
        self, target: MethodTarget, bit_of: Callable[[Pointcut], int]
    ) -> "bool | Residue":
        inner = self.inner.residue(target, bit_of)
        if isinstance(inner, bool):
            return not inner
        return Residue(inner.bits, lambda mask: not inner.test(mask))

    def cflow_observed(self) -> tuple[Pointcut, ...]:
        return self.inner.cflow_observed()

    def explain(self, target: MethodTarget, indent: int = 0) -> str:
        pad = "  " * indent
        head = "matches" if self.matches(target) else "no match"
        return "\n".join(
            [f"{pad}{head}: !", self.inner.explain(target, indent + 1)]
        )

    def __str__(self) -> str:
        return f"!{self.inner}"


def _positional_arity(function: object) -> int:
    """Number of positional parameters excluding ``self``."""
    try:
        signature = inspect.signature(function)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return -1
    count = 0
    for name, parameter in signature.parameters.items():
        if name == "self":
            continue
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>&&|\|\||!|\(|\))|(?P<word>[A-Za-z_*][\w*]*\+?)|(?P<dot>\.)"
    r"|(?P<dots>\.\.)|(?P<comma>,))"
)


def parse_pointcut(expression: str) -> Pointcut:
    """Parse a pointcut expression string into a matcher tree."""
    if isinstance(expression, Pointcut):
        return expression
    if not isinstance(expression, str):
        raise PointcutSyntaxError(
            f"pointcut must be a string expression or a Pointcut instance, "
            f"got {type(expression).__name__}"
        )
    parser = _PointcutParser(expression)
    pointcut = parser.parse_or()
    parser.skip_ws()
    if parser.pos != len(expression):
        parser.fail(
            "trailing input after a complete pointcut "
            "(combine expressions with '&&' or '||')"
        )
    return pointcut


class _PointcutParser:
    """Hand-rolled scanner/parser for the grammar above."""

    #: Characters that can never appear inside or directly after a
    #: name pattern; seeing one means the user reached for regex/glob
    #: syntax the grammar does not have (e.g. ``do_get[0-9]``).
    _BAD_NAME_CHARS = set("[]{}?-=@#$%^~`;:'\"\\/<>")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> None:
        """Raise with the offset, the full expression and a caret."""
        raise PointcutSyntaxError(
            f"{message} at offset {self.pos}\n"
            f"    {self.text}\n"
            f"    {' ' * self.pos}^"
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str, context: str = "") -> None:
        if not self.accept(literal):
            suffix = f" {context}" if context else ""
            self.fail(f"expected {literal!r}{suffix}")

    def parse_or(self) -> Pointcut:
        left = self.parse_and()
        while self.accept("||"):
            left = _Or(left, self.parse_and())
        return left

    def parse_and(self) -> Pointcut:
        left = self.parse_unary()
        while self.accept("&&"):
            left = _And(left, self.parse_unary())
        return left

    def parse_unary(self) -> Pointcut:
        if self.accept("!"):
            return _Not(self.parse_unary())
        if self.accept("("):
            inner = self.parse_or()
            self.expect(")")
            return inner
        return self.parse_primitive()

    def parse_primitive(self) -> Pointcut:
        self.skip_ws()
        if self.accept("cflowbelow"):
            self.expect("(")
            inner = self.parse_or()
            self.expect(")")
            return Cflowbelow(inner)
        for keyword in ("execution", "call"):
            if self.accept(keyword):
                self.expect("(")
                pointcut = self._parse_signature()
                self.expect(")")
                return pointcut
        raise PointcutSyntaxError(
            f"expected 'execution(', 'call(' or 'cflowbelow(' at offset "
            f"{self.pos} in {self.text!r}"
        )

    def _parse_signature(self) -> ExecutionPointcut:
        type_pattern = self._parse_name("type pattern")
        include_subtypes = False
        if self.accept("+"):
            include_subtypes = True
        self.expect(".", "between type and method patterns (Type[+].method(args))")
        method_pattern = self._parse_name("method pattern")
        self.expect("(", "to open the argument list (use '(..)' for any arity)")
        arity: int | None
        if self.accept(".."):
            arity = None
            self.expect(")")
        elif self.accept(")"):
            arity = 0
        else:
            names = 1
            self._parse_name("argument")
            while self.accept(","):
                self._parse_name("argument")
                names += 1
            self.expect(")")
            arity = names
        return ExecutionPointcut(
            type_pattern=type_pattern,
            include_subtypes=include_subtypes,
            method_pattern=method_pattern,
            arity=arity,
        )

    def _parse_name(self, what: str) -> str:
        self.skip_ws()
        match = re.match(r"[A-Za-z_*][\w*]*", self.text[self.pos :])
        if match is None:
            if self.pos < len(self.text) and self.text[self.pos] in self._BAD_NAME_CHARS:
                self.fail(
                    f"invalid character {self.text[self.pos]!r} in {what} "
                    f"(patterns allow letters, digits, '_' and the '*' wildcard "
                    f"only -- no regex or glob character classes)"
                )
            self.fail(f"expected {what}")
        self.pos += match.end()
        # A name that stops at a forbidden character is a malformed
        # pattern (e.g. 'do_get[0-9]'), not a name followed by grammar:
        # point at the character rather than letting a downstream
        # expect() produce a misleading "expected '('".
        if self.pos < len(self.text) and self.text[self.pos] in self._BAD_NAME_CHARS:
            self.fail(
                f"invalid character {self.text[self.pos]!r} after {what} "
                f"{match.group(0)!r} (patterns allow letters, digits, '_' and "
                f"the '*' wildcard only -- no regex or glob character classes)"
            )
        return match.group(0)
