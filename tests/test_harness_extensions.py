"""Harness tests for the extension configurations (weak TTL) and spec
labelling."""

import pytest

from repro.cache.analysis import InvalidationPolicy
from repro.harness.experiments import ExperimentDefaults, RunSpec, run_cell

FAST = ExperimentDefaults(warmup=10.0, duration=25.0)


class TestLabels:
    def test_all_labels_distinct(self):
        specs = [
            RunSpec(app="rubis", cached=False),
            RunSpec(app="rubis"),
            RunSpec(app="rubis", forced_miss=True),
            RunSpec(app="rubis", weak_ttl=30.0),
            RunSpec(app="tpcw", best_seller_window=True),
        ]
        labels = [spec.label for spec in specs]
        assert len(labels) == len(set(labels))

    def test_weak_label_contains_ttl(self):
        assert "30" in RunSpec(app="rubis", weak_ttl=30.0).label


class TestWeakTtlCells:
    def test_weak_ttl_cell_has_no_invalidations(self):
        outcome = run_cell(
            RunSpec(app="rubis", weak_ttl=120.0, defaults=FAST), 30
        )
        stats = outcome.cache_stats
        assert stats.invalidated_pages == 0
        assert stats.intersection_tests == 0
        # TTL hits are counted as semantic.
        assert stats.semantic_hits > 0

    def test_weak_ttl_with_policy_still_runs(self):
        outcome = run_cell(
            RunSpec(
                app="rubis",
                weak_ttl=60.0,
                policy=InvalidationPolicy.COLUMN_ONLY,
                defaults=FAST,
            ),
            20,
        )
        assert outcome.result.errors == 0


class TestCurveHelpers:
    def test_quick_defaults(self):
        from repro.harness.experiments import quick_defaults, scaled_spec

        defaults = quick_defaults()
        spec = scaled_spec(RunSpec(app="rubis"), defaults)
        assert spec.defaults.duration == defaults.duration

    def test_run_cell_rejects_bad_app(self):
        with pytest.raises(ValueError):
            run_cell(RunSpec(app="nope", defaults=FAST), 5)
