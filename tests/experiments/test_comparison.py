"""Tests for comparable number/size ratio computation."""

from __future__ import annotations

import pytest

from repro.estimation.oracle import RRPoolOracle
from repro.exceptions import ExperimentConfigurationError
from repro.experiments.comparison import comparable_ratio_curve
from repro.experiments.factories import estimator_factory
from repro.experiments.sweeps import sweep_sample_numbers
from repro.graphs.datasets import load_dataset
from repro.graphs.probability import assign_probabilities


@pytest.fixture(scope="module")
def karate_sweeps():
    graph = assign_probabilities(load_dataset("karate"), "uc0.1")
    oracle = RRPoolOracle(graph, pool_size=10_000, seed=4)
    common = dict(num_trials=15, oracle=oracle, experiment_seed=2)
    snapshot_sweep = sweep_sample_numbers(
        graph, 1, estimator_factory("snapshot"), (1, 2, 4, 8, 16, 32), **common
    )
    ris_sweep = sweep_sample_numbers(
        graph, 1, estimator_factory("ris"), (4, 16, 64, 256, 1024, 4096), **common
    )
    oneshot_sweep = sweep_sample_numbers(
        graph, 1, estimator_factory("oneshot"), (1, 2, 4, 8, 16, 32, 64), **common
    )
    return graph, snapshot_sweep, ris_sweep, oneshot_sweep


class TestComparableRatioCurve:
    def test_self_comparison_ratio_at_most_one(self, karate_sweeps):
        _, snapshot_sweep, _, _ = karate_sweeps
        curve = comparable_ratio_curve(snapshot_sweep, snapshot_sweep)
        for point in curve.defined_points():
            # The least own sample number matching its own mean is <= itself.
            assert point.number_ratio <= 1.0

    def test_metadata(self, karate_sweeps):
        _, snapshot_sweep, ris_sweep, _ = karate_sweeps
        curve = comparable_ratio_curve(snapshot_sweep, ris_sweep)
        assert curve.reference_approach == "snapshot"
        assert curve.target_approach == "ris"
        assert len(curve.points) == len(snapshot_sweep.sample_numbers)

    def test_ris_needs_more_samples_than_snapshot(self, karate_sweeps):
        # Paper Table 7: on Karate uc0.1 the RIS/Snapshot comparable number
        # ratio is around 32 (>> 1).
        _, snapshot_sweep, ris_sweep, _ = karate_sweeps
        ratio = comparable_ratio_curve(snapshot_sweep, ris_sweep).median_number_ratio()
        assert ratio is not None
        assert ratio > 1.0

    def test_oneshot_needs_at_least_as_many_as_snapshot(self, karate_sweeps):
        # Paper Table 6: Oneshot/Snapshot comparable ratio >= 1 (typically 1-32).
        _, snapshot_sweep, _, oneshot_sweep = karate_sweeps
        ratio = comparable_ratio_curve(snapshot_sweep, oneshot_sweep).median_number_ratio()
        assert ratio is not None
        assert ratio >= 0.5

    def test_size_ratio_defined_for_ris_vs_snapshot(self, karate_sweeps):
        _, snapshot_sweep, ris_sweep, _ = karate_sweeps
        size_ratio = comparable_ratio_curve(snapshot_sweep, ris_sweep).median_size_ratio()
        assert size_ratio is not None
        assert size_ratio > 0.0

    def test_restricting_reference_points(self, karate_sweeps):
        _, snapshot_sweep, ris_sweep, _ = karate_sweeps
        curve = comparable_ratio_curve(
            snapshot_sweep, ris_sweep, reference_sample_numbers=(4, 16)
        )
        assert len(curve.points) == 2

    def test_unknown_reference_point_rejected(self, karate_sweeps):
        _, snapshot_sweep, ris_sweep, _ = karate_sweeps
        with pytest.raises(ExperimentConfigurationError):
            comparable_ratio_curve(
                snapshot_sweep, ris_sweep, reference_sample_numbers=(3,)
            )

    def test_mismatched_instances_rejected(self, karate_sweeps):
        from repro.graphs.generators import star

        graph = star(4)
        oracle = RRPoolOracle(graph, pool_size=500, seed=0)
        other = sweep_sample_numbers(
            graph, 1, estimator_factory("ris"), (2, 4), 4, oracle=oracle
        )
        _, snapshot_sweep, _, _ = karate_sweeps
        with pytest.raises(ExperimentConfigurationError):
            comparable_ratio_curve(snapshot_sweep, other)

    def test_undefined_points_when_target_sweep_too_short(self, karate_sweeps):
        _, snapshot_sweep, _, _ = karate_sweeps
        graph = assign_probabilities(load_dataset("karate"), "uc0.1")
        oracle = RRPoolOracle(graph, pool_size=5_000, seed=7)
        tiny_ris = sweep_sample_numbers(
            graph, 1, estimator_factory("ris"), (1, 2), 10, oracle=oracle
        )
        curve = comparable_ratio_curve(snapshot_sweep, tiny_ris)
        assert any(point.comparable_samples is None for point in curve.points)

    def test_as_rows_shape(self, karate_sweeps):
        _, snapshot_sweep, ris_sweep, _ = karate_sweeps
        rows = comparable_ratio_curve(snapshot_sweep, ris_sweep).as_rows()
        assert len(rows) == len(snapshot_sweep.sample_numbers)
        assert {"reference_samples", "comparable_samples", "number_ratio"} <= set(rows[0])
