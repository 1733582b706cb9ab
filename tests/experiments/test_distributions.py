"""Tests for influence-distribution summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentConfigurationError
from repro.experiments.distributions import (
    InfluenceDistribution,
    mean_versus_statistics,
    near_optimal_probability,
)


class TestInfluenceDistribution:
    def test_constant_values(self):
        dist = InfluenceDistribution.from_values([5.0] * 20)
        assert dist.mean == 5.0
        assert dist.std == 0.0
        assert dist.median == 5.0
        assert dist.percentile_1 == 5.0
        assert dist.percentile_99 == 5.0
        assert dist.interquartile_range == 0.0

    def test_known_statistics(self):
        values = np.arange(1, 101, dtype=float)
        dist = InfluenceDistribution.from_values(values)
        assert dist.mean == pytest.approx(50.5)
        assert dist.median == pytest.approx(50.5)
        assert dist.minimum == 1.0
        assert dist.maximum == 100.0
        assert dist.percentile_25 == pytest.approx(np.percentile(values, 25))

    def test_notch_contains_median(self):
        dist = InfluenceDistribution.from_values(np.random.default_rng(0).normal(10, 2, 200))
        assert dist.notch_low <= dist.median <= dist.notch_high

    def test_notch_shrinks_with_more_trials(self):
        rng = np.random.default_rng(1)
        small = InfluenceDistribution.from_values(rng.normal(10, 2, 50))
        large = InfluenceDistribution.from_values(rng.normal(10, 2, 5000))
        assert (large.notch_high - large.notch_low) < (small.notch_high - small.notch_low)

    def test_empty_values_rejected(self):
        with pytest.raises(ExperimentConfigurationError):
            InfluenceDistribution.from_values([])

    def test_single_value(self):
        dist = InfluenceDistribution.from_values([3.0])
        assert dist.num_trials == 1
        assert dist.std == 0.0

    def test_as_row_keys(self):
        row = InfluenceDistribution.from_values([1.0, 2.0, 3.0]).as_row()
        assert {"mean", "std", "median", "p1", "p99"} <= set(row)


class TestNearOptimalProbability:
    def test_all_above_threshold(self):
        assert near_optimal_probability([10, 10, 10], reference=10) == 1.0

    def test_none_above_threshold(self):
        assert near_optimal_probability([1, 2, 3], reference=100) == 0.0

    def test_partial(self):
        values = [9.5, 9.4, 8.0, 10.0]
        # threshold is 0.95 * 10 = 9.5: only 9.5 and 10.0 qualify.
        assert near_optimal_probability(values, reference=10, quality=0.95) == 0.5

    def test_empty_values(self):
        assert near_optimal_probability([], reference=10) == 0.0

    def test_invalid_reference(self):
        with pytest.raises(ExperimentConfigurationError):
            near_optimal_probability([1.0], reference=0.0)

    def test_invalid_quality(self):
        with pytest.raises(ExperimentConfigurationError):
            near_optimal_probability([1.0], reference=1.0, quality=1.5)


class TestMeanVersusStatistics:
    def test_series_sorted_by_mean(self):
        distributions = [
            InfluenceDistribution.from_values([5.0, 6.0]),
            InfluenceDistribution.from_values([1.0, 2.0]),
            InfluenceDistribution.from_values([10.0, 11.0]),
        ]
        series = mean_versus_statistics(distributions)
        assert series["mean"] == sorted(series["mean"])
        assert len(series["std"]) == 3
        assert len(series["p1"]) == 3
