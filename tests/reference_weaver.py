"""The per-call pointcut evaluator and dispatcher, kept as the test oracle.

This is ``src/repro/aop/weaver.py``'s ``_build_dispatcher`` and the
``dynamic_matches`` methods of ``src/repro/aop/pointcut.py`` as they
stood before advice chains were resolved at weave time: every call
re-filters the enabled advice, evaluates each candidate's pointcut
against the live control-flow stack, rebuilds the around chain and
re-partitions the advice by kind.  ``repro.aop.weaver`` must agree with
it on which advice runs, in which order, and on what ``current_cflow()``
shows at every step (``tests/test_aop_reference.py``).

Kept apart from production on purpose: its own control-flow stack, its
own observer registry and its own reconfiguration epoch, so a reference
weave and a production weave of twin classes cannot see each other's
frames.  :func:`dynamic_matches` walks the production pointcut tree
(the classes no longer evaluate themselves per call).
"""

from __future__ import annotations

import contextvars
import functools
from typing import Any, Iterable

from repro.aop.advice import AdviceKind
from repro.aop.aspect import Aspect, BoundAdvice
from repro.aop.joinpoint import JoinPoint, Signature
from repro.aop.pointcut import Cflowbelow, MethodTarget, Pointcut, _And, _Not, _Or
from repro.errors import WeavingError

_CFLOW_STACK: contextvars.ContextVar[tuple[MethodTarget, ...]] = (
    contextvars.ContextVar("reference_cflow_stack", default=())
)


def current_cflow() -> tuple[MethodTarget, ...]:
    """The reference-woven join points currently executing."""
    return _CFLOW_STACK.get()


def dynamic_matches(
    pointcut: Pointcut, target: MethodTarget, stack: tuple[MethodTarget, ...]
) -> bool:
    """Does ``pointcut`` apply to this invocation of ``target``, with
    ``stack`` holding the join points executing below it?"""
    if isinstance(pointcut, Cflowbelow):
        return any(pointcut.inner.matches(frame) for frame in stack)
    if isinstance(pointcut, _And):
        return dynamic_matches(pointcut.left, target, stack) and dynamic_matches(
            pointcut.right, target, stack
        )
    if isinstance(pointcut, _Or):
        return dynamic_matches(pointcut.left, target, stack) or dynamic_matches(
            pointcut.right, target, stack
        )
    if isinstance(pointcut, _Not):
        return not dynamic_matches(pointcut.inner, target, stack)
    return pointcut.matches(target)


_RECONFIG_EPOCH = [0]


def notify_aspect_switch() -> None:
    _RECONFIG_EPOCH[0] += 1


class _CflowObserverRegistry:
    def __init__(self) -> None:
        self._by_weaver: dict[int, tuple[Pointcut, ...]] = {}
        self.version = 0

    def register(self, weaver_id: int, pointcuts: tuple[Pointcut, ...]) -> None:
        if self._by_weaver.get(weaver_id) != pointcuts:
            self._by_weaver[weaver_id] = pointcuts
            self.version += 1
            notify_aspect_switch()

    def unregister(self, weaver_id: int) -> None:
        if self._by_weaver.pop(weaver_id, None) is not None:
            self.version += 1
            notify_aspect_switch()

    def observes(self, target: MethodTarget) -> bool:
        return any(
            pointcut.matches(target)
            for pointcuts in self._by_weaver.values()
            for pointcut in pointcuts
        )


_CFLOW_OBSERVERS = _CflowObserverRegistry()


class ReferenceWeaver:
    """``Weaver`` with the per-call dispatcher (no report, no surface)."""

    def __init__(self) -> None:
        self._aspects: list[Aspect] = []
        self._woven: list[tuple[type, str, Any]] = []

    def add_aspect(self, aspect: Aspect) -> "ReferenceWeaver":
        self._aspects.append(aspect)
        return self

    def weave(self, classes: Iterable[type]) -> None:
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
                if getattr(function, "__ref_woven__", False):
                    raise WeavingError(f"{cls.__name__}.{method_name} is already woven")
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

    def unweave(self) -> None:
        for cls, method_name, original in reversed(self._woven):
            setattr(cls, method_name, original)
        self._woven.clear()
        _CFLOW_OBSERVERS.unregister(id(self))

    def _sorted_advices(self) -> list[BoundAdvice]:
        bound: list[BoundAdvice] = []
        for aspect in self._aspects:
            bound.extend(aspect.advices())
        bound.sort(key=lambda advice: (advice.aspect.precedence, advice.spec.order))
        return bound


def _build_dispatcher(
    cls: type, method_name: str, original: Any, advices: list[BoundAdvice]
) -> Any:
    signature = Signature(class_name=cls.__name__, method_name=method_name)
    method_target = MethodTarget(
        cls=cls, method_name=method_name, function=original
    )
    has_dynamic = any(advice.spec.pointcut.is_dynamic for advice in advices)
    switchable = [
        advice for advice in advices if hasattr(advice.aspect, "enabled")
    ]
    chain_cache: dict[tuple[int, ...], Any] = {}

    def run_core(target: object, *args: Any, **kwargs: Any) -> Any:
        return original(target, *args, **kwargs)

    def build_chain(active: list[BoundAdvice]) -> Any:
        arounds = [a for a in active if a.spec.kind is AdviceKind.AROUND]

        def make_layer(next_invoke: Any, advice: BoundAdvice) -> Any:
            def layer(target: object, *args: Any, **kwargs: Any) -> Any:
                joinpoint = JoinPoint(
                    signature=signature,
                    target=target,
                    args=args,
                    kwargs=kwargs,
                    invoke=next_invoke,
                )
                return advice.method(joinpoint)

            return layer

        innermost = run_core
        for advice in reversed(arounds):
            innermost = make_layer(innermost, advice)
        return innermost

    static_chain = build_chain(advices)

    def run_advised(
        active: list[BoundAdvice], chain: Any, target: object, args, kwargs
    ) -> Any:
        befores = [a for a in active if a.spec.kind is AdviceKind.BEFORE]
        after_returnings = [
            a for a in active if a.spec.kind is AdviceKind.AFTER_RETURNING
        ]
        after_throwings = [
            a for a in active if a.spec.kind is AdviceKind.AFTER_THROWING
        ]
        afters = [a for a in active if a.spec.kind is AdviceKind.AFTER]
        joinpoint = JoinPoint(
            signature=signature,
            target=target,
            args=args,
            kwargs=kwargs,
            invoke=lambda t, *a, **k: None,
        )
        for advice in befores:
            joinpoint_before = JoinPoint(
                signature=signature,
                target=target,
                args=args,
                kwargs=kwargs,
                invoke=lambda t, *a, **k: None,
            )
            advice.method(joinpoint_before)
        try:
            result = chain(target, *args, **kwargs)
        except BaseException as exc:
            joinpoint.exception = exc
            for advice in reversed(after_throwings):
                advice.method(joinpoint)
            for advice in reversed(afters):
                advice.method(joinpoint)
            raise
        joinpoint.result = result
        for advice in reversed(after_returnings):
            advice.method(joinpoint)
        for advice in reversed(afters):
            advice.method(joinpoint)
        return result

    plan: list[Any] = [-1, advices, None, True, False]

    def refresh_plan() -> None:
        epoch = _RECONFIG_EPOCH[0]
        if switchable and not all(a.aspect.enabled for a in switchable):
            candidates = [
                advice
                for advice in advices
                if getattr(advice.aspect, "enabled", True)
            ]
        else:
            candidates = advices
        chain = None
        if not has_dynamic:
            if candidates is advices:
                chain = static_chain
            else:
                key = tuple(id(advice) for advice in candidates)
                chain = chain_cache.get(key)
                if chain is None:
                    chain = build_chain(candidates)
                    chain_cache[key] = chain
        observed = _CFLOW_OBSERVERS.observes(method_target)
        plan[:] = [
            epoch,
            candidates,
            chain,
            observed,
            not candidates and not observed,
        ]

    @functools.wraps(original)
    def dispatcher(target: object, *args: Any, **kwargs: Any) -> Any:
        if plan[0] != _RECONFIG_EPOCH[0]:
            refresh_plan()
        if plan[4]:
            return original(target, *args, **kwargs)
        candidates = plan[1]
        stack_below = _CFLOW_STACK.get()
        if has_dynamic:
            active = [
                advice
                for advice in candidates
                if dynamic_matches(
                    advice.spec.pointcut, method_target, stack_below
                )
            ]
            if not active and not plan[3]:
                return original(target, *args, **kwargs)
            chain = build_chain(active) if active else run_core
        else:
            active = candidates
            chain = plan[2]
        token = _CFLOW_STACK.set(stack_below + (method_target,))
        try:
            if not active:
                return run_core(target, *args, **kwargs)
            return run_advised(active, chain, target, args, kwargs)
        finally:
            _CFLOW_STACK.reset(token)

    setattr(dispatcher, "__ref_woven__", True)
    return dispatcher
