"""The weave-time-resolved dispatcher against the per-call evaluator.

``tests/reference_weaver.py`` keeps the dispatcher this repository used
to run: it evaluates every candidate pointcut against the live stack on
every call.  Production resolves the static part once per join point and
answers ``cflowbelow`` from a bitmask carried with the stack; for every
program both must run the same advice, in the same order, and show the
same ``current_cflow()`` at every step.

A *program* is two twin class hierarchies (same names, so the same
pointcuts match), one woven by each implementation with the *same*
aspect instances, and a call tree executed on both.  The tree nests
arbitrarily -- recursion included -- and crosses from the classes one
weaver wove into the class a second weaver wove, whose ``cflowbelow``
pointcuts observe the first one's frames.  Between runs, switchable
aspects are toggled and the second weaver is withdrawn, so plans have to
be re-resolved and carried masks re-derived.

Mutation-checked by hand against ``repro/aop/weaver.py``: pushing
``mask`` instead of ``mask | frame_bits`` (a frame forgets its bits),
dropping the ``epoch != _RECONFIG_EPOCH[0]`` test (a switch or an
unweave is never noticed) and not bumping the epoch when the observer
bits are renumbered each make ``test_same_advice_same_order_same_cflow``
fail within the first few dozen examples; skipping the ``seen !=
version`` re-derivation fails the reweave-inside-a-call example below.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aop import Aspect, Weaver, around, current_cflow
from repro.aop import advice as advice_decorators
from repro.aop.advice import AdviceKind
from repro.aop.pointcut import Cflowbelow, ExecutionPointcut, Pointcut
from repro.aop.weaver import notify_aspect_switch

from tests import reference_weaver as reference

CLASS_NAMES = ("Base", "Child", "Other")
METHOD_NAMES = ("m0", "m1", "m2")


class Boom(Exception):
    """Raised by a call-tree node marked ``raises``."""


@dataclass(frozen=True)
class Call:
    """One node of the call tree: ``cls.method`` runs ``children``, then
    maybe raises."""

    cls: str
    method: str
    raises: bool
    children: tuple["Call", ...]


class World:
    """One set of twin classes plus the log everything writes to."""

    def __init__(self, cflow) -> None:
        self.cflow = cflow
        self.log: list[tuple] = []
        world = self

        def body(self, call: Call) -> str:
            world.record("body", f"{type(self).__name__}.{call.method}")
            world.run(call.children)
            if call.raises:
                raise Boom(call.method)
            return call.method

        class Base:
            m0 = m1 = m2 = body

        class Child(Base):
            def m1(self, call: Call) -> str:  # an override: its own join point
                return body(self, call)

        class Other:
            m0 = m1 = body

        # ``m0 = m1 = body`` would hand the weaver one function under
        # three names; give every name its own function object.
        for cls in (Base, Other):
            for name in [n for n, f in vars(cls).items() if f is body]:
                setattr(cls, name, _clone(body))
        self.classes = {"Base": Base, "Child": Child, "Other": Other}
        self.objects = {name: cls() for name, cls in self.classes.items()}

    def record(self, *event) -> None:
        stack = tuple(
            (frame.cls.__name__, frame.method_name) for frame in self.cflow()
        )
        self.log.append((*event, stack))

    def run(self, calls: tuple[Call, ...]) -> None:
        for call in calls:
            method = getattr(self.objects[call.cls], call.method, None)
            if method is None:  # Other has no m2
                continue
            try:
                self.record("returned", method(call))
            except Boom as exc:
                self.record("raised", str(exc))


def _clone(function):
    def clone(self, call):
        return function(self, call)

    return clone


#: The world whose program is running; advice logs into it.
_ACTIVE: list[World] = []


@dataclass(frozen=True)
class AdviceSpec:
    pointcut: Pointcut
    kind: AdviceKind
    proceeds: bool  # around only: bypass the join point when False


def build_aspect(
    index: int, precedence: int, switchable: bool, specs: list[AdviceSpec]
) -> Aspect:
    """An aspect instance with one advice method per spec."""
    namespace: dict = {"precedence": precedence}
    for number, spec in enumerate(specs):
        name = f"a{index}_{number}_{spec.kind.value}"

        def advice(self, joinpoint, _name=name, _spec=spec):
            world = _ACTIVE[-1]
            world.record(_name, str(joinpoint.signature))
            if _spec.kind is not AdviceKind.AROUND:
                return None
            if not _spec.proceeds:
                return "bypassed"
            try:
                return joinpoint.proceed()
            finally:
                world.record(_name + ":done", str(joinpoint.signature))

        advice.__name__ = name
        decorate = getattr(advice_decorators, spec.kind.value)  # before, around, ...
        namespace[name] = decorate(spec.pointcut)(advice)
    if switchable:
        namespace["enabled"] = True
    return type(f"Aspect{index}", (Aspect,), namespace)()


# -- strategies ---------------------------------------------------------------------------

primitives = st.builds(
    ExecutionPointcut,
    type_pattern=st.sampled_from(("Base", "Child", "Other", "*", "B*")),
    include_subtypes=st.booleans(),
    method_pattern=st.sampled_from(("m0", "m1", "m2", "m*", "*")),
    arity=st.sampled_from((None, None, 1, 2)),
)
pointcuts = st.recursive(
    primitives,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda pair: pair[0] & pair[1]),
        st.tuples(inner, inner).map(lambda pair: pair[0] | pair[1]),
        inner.map(lambda pointcut: ~pointcut),
        inner.map(Cflowbelow),
    ),
    max_leaves=5,
)
advice_specs = st.builds(
    AdviceSpec,
    pointcut=pointcuts,
    kind=st.sampled_from(
        (AdviceKind.AROUND, AdviceKind.AROUND, *AdviceKind)
    ),
    proceeds=st.sampled_from((True, True, True, False)),
)
aspect_params = st.tuples(
    st.integers(min_value=-2, max_value=2),  # precedence
    st.booleans(),  # switchable
    st.lists(advice_specs, min_size=1, max_size=3),
)
calls = st.recursive(
    st.builds(
        Call,
        cls=st.sampled_from(CLASS_NAMES),
        method=st.sampled_from(METHOD_NAMES),
        raises=st.sampled_from((False, False, False, True)),
        children=st.just(()),
    ),
    lambda inner: st.builds(
        Call,
        cls=st.sampled_from(CLASS_NAMES),
        method=st.sampled_from(METHOD_NAMES),
        raises=st.sampled_from((False, False, False, True)),
        children=st.lists(inner, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    first=st.lists(aspect_params, min_size=1, max_size=3),
    second=st.lists(aspect_params, min_size=0, max_size=2),
    program=st.lists(calls, min_size=1, max_size=3).map(tuple),
    switches=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_same_advice_same_order_same_cflow(first, second, program, switches):
    first_aspects = [
        build_aspect(i, *params) for i, params in enumerate(first)
    ]
    second_aspects = [
        build_aspect(10 + i, *params) for i, params in enumerate(second)
    ]
    worlds = []
    for weaver_class, cflow in (
        (Weaver, current_cflow),
        (reference.ReferenceWeaver, reference.current_cflow),
    ):
        world = World(cflow)
        # One weaver over the hierarchy, a second over ``Other``: its
        # ``cflowbelow`` pointcuts observe frames the first one pushes.
        weavers = []
        for aspects, names in (
            (first_aspects, ("Base", "Child")),
            (second_aspects, ("Other",)),
        ):
            weaver = weaver_class()
            for aspect in aspects:
                weaver.add_aspect(aspect)
            weaver.weave([world.classes[name] for name in names])
            weavers.append(weaver)
        worlds.append((world, weavers))
    switchable = [
        aspect
        for aspect in first_aspects + second_aspects
        if hasattr(aspect, "enabled")
    ]

    def run_both() -> None:
        for world, _weavers in worlds:
            _ACTIVE.append(world)
            try:
                world.run(program)
            finally:
                _ACTIVE.pop()
            assert world.cflow() == ()

    try:
        run_both()
        # Toggle the switchable aspects (shared by both weaves).
        for aspect, on in zip(switchable, switches):
            aspect.enabled = on
        notify_aspect_switch()
        reference.notify_aspect_switch()
        run_both()
        # Withdraw the second weaver: its observers leave the registry,
        # the bits are renumbered and ``Other`` runs unadvised.
        for _world, weavers in worlds:
            weavers.pop().unweave()
        run_both()
    finally:
        for _world, weavers in worlds:
            for weaver in weavers:
                weaver.unweave()
    (production, _), (oracle, _) = worlds
    assert production.log == oracle.log


def test_a_mask_carried_across_a_reweave_is_rederived():
    """A weave that happens *inside* a woven call renumbers the observer
    bits while frames pushed under the old numbering are on the stack:
    the next dispatcher must rebuild the mask from the stack itself."""
    seen: list[tuple[str, tuple[str, ...]]] = []

    class Outer:
        def run(self, then):
            return then()

    class Inner:
        def probe(self):
            return "probed"

    class Late:
        def ping(self):
            return "pinged"

    class Top(Aspect):
        @around("execution(Outer.run(..))")
        def around_run(self, joinpoint):
            return joinpoint.proceed()

    class BelowRun(Aspect):
        @around(
            "execution(Inner.probe(..)) && cflowbelow(execution(Outer.run(..)))"
        )
        def below(self, joinpoint):
            seen.append(
                ("below", tuple(f.method_name for f in current_cflow()))
            )
            return joinpoint.proceed()

    class Unrelated(Aspect):
        # Registers a *different* observed pointcut first, so the bit of
        # ``Outer.run`` moves when this weaver comes and goes.
        @around(
            "execution(Late.ping(..)) && !cflowbelow(execution(Late.*(..)))"
        )
        def around_ping(self, joinpoint):
            return joinpoint.proceed()

    early = Weaver().add_aspect(Unrelated())
    early.weave([Late])
    outer = Weaver().add_aspect(Top())
    outer.weave([Outer])
    inner = Weaver().add_aspect(BelowRun())
    try:

        def weave_then_probe():
            # Mid-call: ``Outer.run`` is on the stack, pushed before
            # ``BelowRun``'s observer existed, and withdrawing ``early``
            # renumbers whatever bits there were.
            inner.weave([Inner])
            early.unweave()
            return Inner().probe()

        assert Outer().run(weave_then_probe) == "probed"
        assert seen == [("below", ("run", "probe"))]
        # Outside ``run`` the guard is false again.
        assert Inner().probe() == "probed"
        assert len(seen) == 1
    finally:
        inner.unweave()
        outer.unweave()
        early.unweave()
