"""Tests for the forward Monte-Carlo spread estimator."""

from __future__ import annotations

import pytest

from repro.diffusion.exact import exact_spread
from repro.diffusion.models import INDEPENDENT_CASCADE, LINEAR_THRESHOLD
from repro.diffusion.random_source import RandomSource
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.exceptions import InvalidParameterError


class TestMonteCarloSpread:
    def test_deterministic_graph_zero_variance(self, star_graph):
        estimate = monte_carlo_spread(star_graph, (0,), 50, seed=0)
        assert estimate.mean == pytest.approx(6.0)
        assert estimate.std == pytest.approx(0.0)
        assert estimate.standard_error == pytest.approx(0.0)

    def test_unbiased_on_diamond(self, probabilistic_diamond):
        estimate = monte_carlo_spread(probabilistic_diamond, (0,), 5000, seed=1)
        assert estimate.mean == pytest.approx(
            exact_spread(probabilistic_diamond, (0,)), rel=0.05
        )

    def test_confidence_interval_contains_truth(self, probabilistic_diamond):
        estimate = monte_carlo_spread(probabilistic_diamond, (0,), 3000, seed=2)
        low, high = estimate.confidence_interval(z=3.0)
        assert low <= exact_spread(probabilistic_diamond, (0,)) <= high

    def test_standard_error_shrinks_with_simulations(self, probabilistic_diamond):
        few = monte_carlo_spread(probabilistic_diamond, (0,), 100, seed=3)
        many = monte_carlo_spread(probabilistic_diamond, (0,), 5000, seed=3)
        assert many.standard_error < few.standard_error

    def test_single_simulation_has_infinite_standard_error(self, probabilistic_diamond):
        estimate = monte_carlo_spread(probabilistic_diamond, (0,), 1, seed=0)
        assert estimate.standard_error == float("inf")

    def test_single_simulation_interval_degenerates_to_point(self, probabilistic_diamond):
        # With no variance information the interval must not be (-inf, inf);
        # it collapses to the point estimate instead.
        estimate = monte_carlo_spread(probabilistic_diamond, (0,), 1, seed=0)
        low, high = estimate.confidence_interval()
        assert low == high == estimate.mean
        assert low != float("-inf") and high != float("inf")

    def test_zero_simulation_estimate_interval_is_finite(self):
        from repro.estimation.monte_carlo import MonteCarloEstimate

        estimate = MonteCarloEstimate(mean=2.5, std=0.0, num_simulations=0)
        assert estimate.confidence_interval() == (2.5, 2.5)

    def test_invalid_simulation_count(self, star_graph):
        with pytest.raises(InvalidParameterError):
            monte_carlo_spread(star_graph, (0,), 0)

    def test_deterministic_given_seed(self, karate_uc01):
        a = monte_carlo_spread(karate_uc01, (0,), 200, seed=9)
        b = monte_carlo_spread(karate_uc01, (0,), 200, seed=9)
        assert a.mean == b.mean
        assert a.std == b.std


class TestSerialMeanIsModelSpread:
    """The serial Monte-Carlo mean is exactly the model's ``simulate_spread``.

    Both draw the same cascades from one stream and average the same
    per-simulation activation counts, so the floats must be equal, not close.
    """

    @pytest.mark.parametrize("num_simulations", [1, 63, 64, 130])
    @pytest.mark.parametrize("batch_mode", [None, "bitparallel"])
    @pytest.mark.parametrize(
        ("model", "graph_fixture"),
        [(INDEPENDENT_CASCADE, "karate_uc01"), (LINEAR_THRESHOLD, "karate_iwc")],
    )
    def test_equal_floats(self, request, model, graph_fixture, batch_mode, num_simulations):
        graph = request.getfixturevalue(graph_fixture)
        for seed in (0, 21):
            estimate = monte_carlo_spread(
                graph, (0, 33), num_simulations, seed=seed, model=model, batch_mode=batch_mode
            )
            assert estimate.mean == model.simulate_spread(
                graph, (0, 33), num_simulations, RandomSource(seed), batch_mode=batch_mode
            )
