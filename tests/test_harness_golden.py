"""Golden numbers for the measurement drivers.

Captured at the commit *before* the drivers were unified (two simulator
loops, two indexed-vs-brute runners): the one loop and the one runner
must make the same random draws and the same ``Resource.schedule``
calls in the same order, so every number below is the old code's.  A
reordered charge step, an extra or missing draw, or a constructor
default that leaks into ``run_cell`` moves at least one of them.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.cache.analysis import InvalidationPolicy
from repro.harness.differential import run_differential
from repro.harness.experiments import (
    ExperimentDefaults,
    RunSpec,
    quick_defaults,
    run_cell,
    run_cluster_cell,
)
from repro.sim.cluster import CLUSTER_SCALING_COST_MODEL

# Both records were re-captured when the five hand-written mixes became
# one executed generator (``DIFFERENTIAL_SEED_0``: the catalog-free arm
# of ``make differential``, at row-witness, the rung where keys and
# partner edges need the catalog; ``COLUMN_DIFFERENTIAL_SEED_0``: the
# catalog arm at extra-query), earlier when an
# INSERT or a DELETE stopped being column-disjoint from the reads of its
# table (docs/lineage.md, rule 4).  ``intersection_tests_indexed`` is
# left out of both records: the indexed ``intersects_any`` stops at the
# first intersecting candidate, so the count follows candidate order.
DIFFERENTIAL_SEED_0 = dict(
    seed=0,
    rounds=60,
    policy="row-witness",
    writes_tested=143,
    pages_doomed=1872,
    intersects_checks=60,
    templates_skipped=5527,
    instances_skipped=888,
    pair_analyses_indexed=820,
    pair_analyses_brute=12298,
    intersection_tests_brute=4247,
    never_read_probes=60,
    mismatches=[],
)

COLUMN_DIFFERENTIAL_SEED_0 = dict(
    seed=0,
    rounds=60,
    policy="extra-query",
    writes_tested=139,
    pages_doomed=1881,
    intersects_checks=60,
    templates_skipped=5355,
    instances_skipped=947,
    pair_analyses_indexed=796,
    pair_analyses_brute=11968,
    intersection_tests_brute=4388,
    templates_skipped_by_lineage=918,
    column_plans_built=47,
    never_read_probes=60,
    never_read_doomed=0,
    mismatches=[],
)


@pytest.mark.parametrize(
    "runner, golden",
    [
        (
            partial(
                run_differential,
                policy=InvalidationPolicy.ROW_WITNESS,
                catalog=False,
            ),
            DIFFERENTIAL_SEED_0,
        ),
        (run_differential, COLUMN_DIFFERENTIAL_SEED_0),
    ],
    ids=["default", "column"],
)
def test_differential_records_field_by_field(runner, golden):
    result = runner(seed=0)
    assert {field: getattr(result, field) for field in golden} == golden
    assert result.intersection_tests_indexed > 0


def exactly(value: float):
    """Same arithmetic in the same order: equal up to the last place."""
    return pytest.approx(value, rel=1e-12, abs=0.0)


#: (app, clients) -> what ``quick_defaults()`` measured at the parent
#: with ``fragments=False, coalesce=False``, i.e. ``PAPER``.  The parent's
#: bare ``AutoWebCache()`` gave TPC-W a 0.86 "hit rate" here (fragment
#: hits), so a ``run_cell`` that reads constructor defaults fails.  The
#: TPC-W cell was re-captured when the executor's pin-first rule cut the
#: rows BestSellers examines; the rule fires on no RUBiS statement, so
#: the RUBiS cell stands.
SINGLE_NODE_CELLS = {
    ("rubis", 300): dict(
        total_requests=5387,
        mean_ms=6.115460678690938,
        hit_rate=0.5150074294205051,
        app_utilization=0.17477414762369384,
        db_utilization=0.06435466666666777,
    ),
    ("tpcw", 150): dict(
        total_requests=2686,
        mean_ms=10.080731218683123,
        hit_rate=0.4343373493975904,
        app_utilization=0.10182222167968957,
        db_utilization=0.1129750000000025,
    ),
}


@pytest.mark.parametrize("app, clients", SINGLE_NODE_CELLS)
def test_load_simulator_cell(app, clients):
    golden = SINGLE_NODE_CELLS[app, clients]
    result = run_cell(RunSpec(app=app, defaults=quick_defaults()), clients).result
    assert result.errors == 0
    assert result.total_requests == golden["total_requests"]
    assert result.mean_response_time_ms == exactly(golden["mean_ms"])
    assert result.hit_rate == exactly(golden["hit_rate"])
    assert result.app_utilization == exactly(golden["app_utilization"])
    assert result.db_utilization == exactly(golden["db_utilization"])


#: 200 clients on the saturation-calibrated model, 5 s + 15 s: loaded
#: enough that the order of the charge steps shows in the mean.
CLUSTER_CELLS = {
    "3-node strong": (
        dict(n_nodes=3),
        dict(
            total_requests=677,
            mean_ms=36.762960049609745,
            hit_rate=0.45663265306122447,
            db_utilization=0.04668399999999988,
            bus_messages=103,
            node_utilizations={
                "node-0": 0.28965614453125055,
                "node-1": 0.3035140195312508,
                "node-2": 0.2461965195312507,
            },
        ),
    ),
}


@pytest.mark.parametrize("name", CLUSTER_CELLS)
def test_cluster_load_simulator_cell(name):
    ring, golden = CLUSTER_CELLS[name]
    result = run_cluster_cell(
        n_clients=200,
        defaults=ExperimentDefaults(warmup=5.0, duration=15.0),
        cost_model=CLUSTER_SCALING_COST_MODEL,
        **ring,
    ).result
    assert result.errors == 0
    assert result.total_requests == golden["total_requests"]
    assert result.bus_messages == golden["bus_messages"]
    assert result.mean_response_time_ms == exactly(golden["mean_ms"])
    assert result.hit_rate == exactly(golden["hit_rate"])
    assert result.db_utilization == exactly(golden["db_utilization"])
    assert result.node_utilizations == {
        node: exactly(value)
        for node, value in golden["node_utilizations"].items()
    }
