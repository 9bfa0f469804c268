"""The two named configurations (``repro.harness.profiles``)."""

from __future__ import annotations

import inspect

import pytest

from bench.workloads import WORKLOADS
from repro.cache.autowebcache import AutoWebCache
from repro.harness import experiments
from repro.harness.profiles import EXTENDED, PAPER

from tests.conftest import node_store

# Every constructor keyword belongs to exactly one class.  A keyword
# added to the installer fails `test_every_keyword_is_classified_once`
# until it is placed here -- and a tier switch must then also be given
# a value in both profiles.

#: Turn a mechanism the paper does not have on or off: profile keys.
TIER_SWITCHES = {"fragments", "coalesce"}

#: Sizing and deployment inputs: what a deployer supplies for *their*
#: application, ring and clock.
INPUTS = {
    "policy",
    "replacement",
    "capacity",
    "max_bytes",
    "semantics",
    "clock",
    "n_nodes",
    "node_names",
    "vnodes",
}

#: Measurement modes no deployment would run.
EXPERIMENT_MODES = {"forced_miss"}


def _keywords(cls: type) -> dict[str, inspect.Parameter]:
    return {
        name: parameter
        for name, parameter in inspect.signature(cls.__init__).parameters.items()
        if name != "self" and parameter.kind is not parameter.VAR_KEYWORD
    }


def test_every_keyword_is_classified_once():
    keywords = set(_keywords(AutoWebCache))
    classes = (TIER_SWITCHES, INPUTS, EXPERIMENT_MODES)
    assert keywords == set().union(*classes)
    assert sum(len(c) for c in classes) == len(keywords)


def test_both_profiles_set_exactly_the_tier_switches():
    # Indexed invalidation is how the facade always dooms, not a switch.
    assert TIER_SWITCHES == {"fragments", "coalesce"}
    assert set(PAPER) == set(EXTENDED) == TIER_SWITCHES
    assert PAPER != EXTENDED


def test_extended_is_the_constructor_defaults():
    defaults = _keywords(AutoWebCache)
    assert dict(EXTENDED) == {key: defaults[key].default for key in EXTENDED}


def test_bench_measures_extended():
    # bench/ is frozen: it builds its facades from these kwargs and
    # nothing else, so with the test above they *are* EXTENDED.
    for workload in WORKLOADS.values():
        assert not set(workload.cache) & TIER_SWITCHES, workload.name


@pytest.mark.parametrize("profile", [PAPER, EXTENDED])
def test_profiles_are_frozen(profile):
    key = next(iter(profile))
    with pytest.raises(TypeError):
        profile[key] = profile[key]
    with pytest.raises(TypeError):
        del profile[key]


def test_profiles_reach_the_cache():
    paper, extended = AutoWebCache(**PAPER), AutoWebCache(**EXTENDED)
    assert paper.fragment_aspect is None and not node_store(paper).coalesce
    assert extended.fragment_aspect is not None and node_store(extended).coalesce
    assert node_store(paper).invalidator.indexed
    assert node_store(extended).invalidator.indexed


def test_run_cell_builds_paper(monkeypatch):
    # Every paper figure goes through run_cell: it must name each tier
    # switch itself rather than inherit a constructor default.
    built = []
    real = experiments.AutoWebCache

    def recording(**kwargs):
        built.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(experiments, "AutoWebCache", recording)
    spec = experiments.RunSpec(
        app="rubis",
        defaults=experiments.ExperimentDefaults(warmup=1.0, duration=2.0),
    )
    experiments.run_cell(spec, 5)
    assert PAPER.items() <= built[0].items()
    assert spec in {spec}  # a RunSpec stays hashable
