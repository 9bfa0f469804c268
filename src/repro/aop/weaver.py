"""The weaver: composes the cache-enabled system from individual aspects.

Given a set of target classes and a set of aspects, :meth:`Weaver.weave`
wraps every method matched by some advice's pointcut with a dispatcher
that runs the advice chain around the original implementation --
the load-time analogue of the ajc compiler (Figure 2 of the paper).

Advice ordering at one join point follows AspectJ semantics:

- ``around`` advice nests outside-in by (aspect precedence, declaration
  order); the innermost ``proceed`` runs befores, the original method,
  then afters;
- ``before`` advice runs in precedence order, ``after*`` advice in
  reverse precedence order.

``unweave`` restores every original method, so tests and benchmarks can
flip the same application between "No cache" and "AutoWebCache"
configurations.
"""

from __future__ import annotations

import contextvars
import functools
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.aop.advice import AdviceKind
from repro.aop.aspect import Aspect, BoundAdvice
from repro.aop.joinpoint import JoinPoint, Signature
from repro.aop.pointcut import MethodTarget, Pointcut
from repro.errors import WeavingError

_WOVEN_MARKER = "__aw_woven__"
_ORIGINAL_ATTR = "__aw_original__"

#: Control-flow state of this context: the woven join points currently
#: executing (outermost first), the observer bitmask of that stack --
#: bit *i* is set while a frame statically matching observed pointcut
#: *i* is on it, which is all a ``cflowbelow`` ever asks -- and the
#: :class:`_CflowObserverRegistry` version the bits were assigned under.
_CFLOW: contextvars.ContextVar[tuple[tuple[MethodTarget, ...], int, int]] = (
    contextvars.ContextVar("aop_cflow", default=((), 0, 0))
)


def current_cflow() -> tuple[MethodTarget, ...]:
    """The woven join points currently executing (outermost first)."""
    return _CFLOW.get()[0]


#: Global reconfiguration epoch.  Dispatchers cache their per-call plan
#: (which advice is enabled, which chain to run, whether the frame can
#: be bypassed entirely) and recompute it only when this moves -- so a
#: woven-but-disabled aspect costs one integer comparison per call.
_RECONFIG_EPOCH = [0]


def notify_aspect_switch() -> None:
    """Invalidate every dispatcher's cached plan.

    Must be called after toggling an aspect's ``enabled`` flag while it
    is woven (the observability aspects do so from their ``enabled``
    property setter).  Weaving and unweaving bump the epoch themselves.
    """
    _RECONFIG_EPOCH[0] += 1


class _CflowObserverRegistry:
    """Every pointcut inspected by a woven ``cflowbelow``, across all
    live weavers, each with one bit of the observer mask.

    A frame sets the bits of the observed pointcuts it statically
    matches when it is pushed, so ``cflowbelow(p)`` is one mask test at
    call time.  A dispatcher whose advice is entirely inactive for an
    invocation may skip the push -- and with it nearly all of its
    overhead -- but only if its frame carries no bit at all.  Weavers
    register their observed pointcuts at weave time and withdraw them
    on unweave; either renumbers the bits and moves :attr:`version`
    (and the reconfiguration epoch), after which dispatchers re-resolve
    and a mask carried from before is re-derived from its stack.
    """

    def __init__(self) -> None:
        self._by_weaver: dict[int, tuple[Pointcut, ...]] = {}
        self._bits: dict[Pointcut, int] = {}
        self.version = 0

    def register(self, weaver_id: int, pointcuts: tuple[Pointcut, ...]) -> None:
        if self._by_weaver.get(weaver_id) != pointcuts:
            self._by_weaver[weaver_id] = pointcuts
            self._renumber()

    def unregister(self, weaver_id: int) -> None:
        if self._by_weaver.pop(weaver_id, None) is not None:
            self._renumber()

    def _renumber(self) -> None:
        distinct = dict.fromkeys(
            pointcut
            for pointcuts in self._by_weaver.values()
            for pointcut in pointcuts
        )
        self._bits = {pointcut: 1 << i for i, pointcut in enumerate(distinct)}
        self.version += 1
        notify_aspect_switch()

    def bit_of(self, pointcut: Pointcut) -> int:
        """The mask bit of an observed pointcut (0: nobody registered it,
        so no frame ever sets it)."""
        return self._bits.get(pointcut, 0)

    def frame_bits(self, target: MethodTarget) -> int:
        """The bits a frame of ``target`` sets: the observed pointcuts
        it statically matches."""
        bits = 0
        for pointcut, bit in self._bits.items():
            if pointcut.matches(target):
                bits |= bit
        return bits

    def mask_of(self, stack: tuple[MethodTarget, ...]) -> int:
        """The mask of a whole stack under the current numbering."""
        mask = 0
        for frame in stack:
            mask |= self.frame_bits(frame)
        return mask


_CFLOW_OBSERVERS = _CflowObserverRegistry()


@dataclass
class WovenJoinPoint:
    """Record of one woven method and the advice attached to it."""

    class_name: str
    method_name: str
    advice_names: list[str]


@dataclass
class WeaveReport:
    """Summary of a weave: which join points got which advice.

    The paper's Figure 20 argument -- weaving code is tiny relative to
    the cache library and the application -- is made quantitative by
    this report plus :mod:`repro.harness.codesize`.
    """

    join_points: list[WovenJoinPoint] = field(default_factory=list)

    @property
    def advised_method_count(self) -> int:
        return len(self.join_points)

    @property
    def advice_application_count(self) -> int:
        return sum(len(jp.advice_names) for jp in self.join_points)

    def describe(self) -> str:
        lines = []
        for jp in sorted(
            self.join_points, key=lambda j: (j.class_name, j.method_name)
        ):
            advice = ", ".join(jp.advice_names)
            lines.append(f"{jp.class_name}.{jp.method_name} <- [{advice}]")
        return "\n".join(lines)


class Weaver:
    """Weaves aspects into classes and can undo the operation."""

    def __init__(self) -> None:
        self._aspects: list[Aspect] = []
        self._woven: list[tuple[type, str, Any]] = []

    def add_aspect(self, aspect: Aspect) -> "Weaver":
        """Register ``aspect``; returns self for chaining."""
        self._aspects.append(aspect)
        return self

    @property
    def aspects(self) -> list[Aspect]:
        return list(self._aspects)

    def weave(self, classes: Iterable[type]) -> WeaveReport:
        """Wrap every matched method of ``classes``; returns a report."""
        report = WeaveReport()
        advices = self._sorted_advices()
        _CFLOW_OBSERVERS.register(
            id(self),
            tuple(
                observed
                for advice in advices
                for observed in advice.spec.pointcut.cflow_observed()
            ),
        )
        for cls in classes:
            for method_name, function in list(vars(cls).items()):
                if not callable(function) or method_name.startswith("__"):
                    continue
                if getattr(function, _WOVEN_MARKER, False):
                    # Re-weaving a method *this* weaver already wrapped
                    # is idempotent (the wrapper stays in place); a
                    # method wrapped by a different weaver is a
                    # composition error -- two independent unweaves
                    # could not both restore the original.
                    if any(
                        cls is woven_cls and method_name == woven_name
                        for woven_cls, woven_name, _ in self._woven
                    ):
                        continue
                    raise WeavingError(
                        f"{cls.__name__}.{method_name} is already woven"
                    )
                target = MethodTarget(
                    cls=cls, method_name=method_name, function=function
                )
                matched = [
                    advice
                    for advice in advices
                    if advice.spec.pointcut.matches(target)
                ]
                if not matched:
                    continue
                wrapper = _build_dispatcher(cls, method_name, function, matched)
                setattr(cls, method_name, wrapper)
                self._woven.append((cls, method_name, function))
                report.join_points.append(
                    WovenJoinPoint(
                        class_name=cls.__name__,
                        method_name=method_name,
                        advice_names=[advice.name for advice in matched],
                    )
                )
        return report

    def unweave(self) -> None:
        """Restore every method this weaver wrapped."""
        for cls, method_name, original in reversed(self._woven):
            setattr(cls, method_name, original)
        self._woven.clear()
        _CFLOW_OBSERVERS.unregister(id(self))

    @staticmethod
    def join_point_surface(classes: Iterable[type]) -> list[MethodTarget]:
        """Read-only view of every join point ``classes`` offer.

        Enumerates exactly the candidates :meth:`weave` would present to
        pointcut matching (non-dunder callables declared directly on
        each class), without weaving anything.  Already-woven methods
        are reported through their *original* functions, so the surface
        is stable whether or not aspects are currently installed --
        the static coverage checker relies on that to evaluate
        pointcuts against a live, possibly woven, process.
        """
        surface: list[MethodTarget] = []
        for cls in classes:
            for method_name, function in list(vars(cls).items()):
                if not callable(function) or method_name.startswith("__"):
                    continue
                original = getattr(function, _ORIGINAL_ATTR, function)
                surface.append(
                    MethodTarget(
                        cls=cls, method_name=method_name, function=original
                    )
                )
        return surface

    def _sorted_advices(self) -> list[BoundAdvice]:
        bound: list[BoundAdvice] = []
        for aspect in self._aspects:
            bound.extend(aspect.advices())
        bound.sort(key=lambda advice: (advice.aspect.precedence, advice.spec.order))
        return bound

    def __enter__(self) -> "Weaver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unweave()


class _ChainTable(dict):
    """``mask & relevant`` -> chain, each entry built on first use."""

    __slots__ = ("chain_for",)

    def __init__(self, chain_for: Any) -> None:
        self.chain_for = chain_for

    def __missing__(self, key: int) -> Any:
        chain = self[key] = self.chain_for(key)
        return chain


def _no_proceed(target: object, *args: Any, **kwargs: Any) -> None:
    """``proceed`` of the join point before/after advice sees: there is
    nothing for it to drive."""


def _build_dispatcher(
    cls: type, method_name: str, original: Any, advices: list[BoundAdvice]
) -> Any:
    """Build the woven replacement for one method.

    Decide once, run per call: whenever the configuration moves (a
    weave, an unweave, an aspect switched), :func:`resolve` partially
    evaluates every enabled advice's pointcut against this join point.
    What cannot be decided then is ``cflowbelow``, and that is a test
    on the observer mask -- so a call looks its mask up in a table of
    prebuilt chains and runs what it finds.
    """
    signature = Signature(class_name=cls.__name__, method_name=method_name)
    method_target = MethodTarget(
        cls=cls, method_name=method_name, function=original
    )

    def build_chain(active: list[BoundAdvice]) -> Any:
        """``active`` composed over the original method: around advice
        nests outside-in; before/after advice, if any, brackets it.
        Around advice alone comes back as ``(outermost advice, what its
        join point proceeds to)``: the dispatcher enters that layer
        itself, one frame fewer per advised call."""

        def make_layer(next_invoke: Any, method: Any) -> Any:
            def layer(target: object, *args: Any, **kwargs: Any) -> Any:
                return method(
                    JoinPoint(signature, target, args, kwargs, next_invoke)
                )

            return layer

        by_kind: dict[AdviceKind, list[Any]] = {kind: [] for kind in AdviceKind}
        for advice in active:
            by_kind[advice.spec.kind].append(advice.method)
        arounds = by_kind[AdviceKind.AROUND]
        chain = original
        for method in reversed(arounds[1:]):
            chain = make_layer(chain, method)
        befores = by_kind[AdviceKind.BEFORE]
        after_returnings = by_kind[AdviceKind.AFTER_RETURNING][::-1]
        after_throwings = by_kind[AdviceKind.AFTER_THROWING][::-1]
        afters = by_kind[AdviceKind.AFTER][::-1]
        if not (befores or after_returnings or after_throwings or afters):
            return arounds[0], chain  # around-only: entered by the dispatcher
        if arounds:
            chain = make_layer(chain, arounds[0])

        def advised(target: object, *args: Any, **kwargs: Any) -> Any:
            joinpoint = JoinPoint(signature, target, args, kwargs, _no_proceed)
            for method in befores:
                method(joinpoint)
            try:
                result = chain(target, *args, **kwargs)
            except BaseException as exc:
                joinpoint.exception = exc
                for method in after_throwings:
                    method(joinpoint)
                for method in afters:
                    method(joinpoint)
                raise
            joinpoint.result = result
            for method in after_returnings:
                method(joinpoint)
            for method in afters:
                method(joinpoint)
            return result

        return advised

    #: The per-call plan, replaced whole when :data:`_RECONFIG_EPOCH`
    #: moves: (epoch, chain table or None, the mask bits the table is
    #: keyed on, the bits this frame sets, observer version).  The
    #: table maps ``mask & relevant`` to the chain to run under a pushed
    #: frame, or to None when nothing is active there and no woven
    #: ``cflowbelow`` observes the frame, so the original is tail-called
    #: without a push; it fills on first use and holds at most
    #: ``2 ** popcount(relevant)`` entries however deep the calls nest.
    #: No table at all: that is so under every mask.
    plan: tuple[Any, ...] = (-1, None, 0, 0, 0)

    def resolve() -> tuple[Any, ...]:
        nonlocal plan
        epoch = _RECONFIG_EPOCH[0]
        registry = _CFLOW_OBSERVERS
        version = registry.version
        frame_bits = registry.frame_bits(method_target)
        #: (advice, True or its Residue) for every advice that is
        #: enabled and not refuted by this join point.
        candidates = []
        relevant = 0
        for advice in advices:
            # Only the observability aspects carry a runtime switch.
            if not getattr(advice.aspect, "enabled", True):
                continue
            residue = advice.spec.pointcut.residue(method_target, registry.bit_of)
            if residue is False:
                continue
            if residue is not True:
                relevant |= residue.bits
            candidates.append((advice, residue))

        def chain_for(key: int) -> Any:
            active = [
                advice
                for advice, residue in candidates
                if residue is True or residue.test(key)
            ]
            if active:
                return build_chain(active)
            return original if frame_bits else None

        table = _ChainTable(chain_for) if candidates or frame_bits else None
        plan = (epoch, table, relevant, frame_bits, version)
        return plan

    @functools.wraps(original)
    def dispatcher(target: object, *args: Any, **kwargs: Any) -> Any:
        epoch, table, relevant, frame_bits, version = plan
        if epoch != _RECONFIG_EPOCH[0]:
            epoch, table, relevant, frame_bits, version = resolve()
        if table is None:
            return original(target, *args, **kwargs)
        stack, mask, seen = _CFLOW.get()
        if seen != version and stack:
            mask = _CFLOW_OBSERVERS.mask_of(stack)
        chain = table[mask & relevant]
        if chain is None:
            return original(target, *args, **kwargs)
        token = _CFLOW.set((stack + (method_target,), mask | frame_bits, version))
        try:
            if type(chain) is tuple:
                advice, proceed_to = chain
                return advice(JoinPoint(signature, target, args, kwargs, proceed_to))
            return chain(target, *args, **kwargs)
        finally:
            _CFLOW.reset(token)

    setattr(dispatcher, _WOVEN_MARKER, True)
    setattr(dispatcher, _ORIGINAL_ATTR, original)
    return dispatcher
