"""Tests for adaptive sample-number determination."""

from __future__ import annotations

import pytest

from repro.algorithms.stopping import (
    adaptive_sample_number,
    determine_theta,
    estimate_opt_lower_bound,
)
from repro.diffusion.exact import exact_optimal_seed_set
from repro.estimation.oracle import RRPoolOracle
from repro.exceptions import InvalidParameterError
from repro.experiments.factories import estimator_factory
from repro.graphs.generators import star


class TestOptLowerBound:
    def test_never_below_k(self, karate_uc01):
        assert estimate_opt_lower_bound(karate_uc01, 4, seed=0) >= 4.0

    def test_lower_bounds_true_optimum_on_star(self):
        graph = star(8)
        bound = estimate_opt_lower_bound(graph, 1, seed=1)
        _, optimum = exact_optimal_seed_set(graph, 1)
        assert bound <= optimum + 1e-9

    def test_lower_bounds_oracle_optimum_on_karate(self, karate_uc01, karate_oracle):
        bound = estimate_opt_lower_bound(karate_uc01, 1, seed=2)
        best_single = karate_oracle.top_vertices(1)[0][1]
        # OPT_1 is the best single-vertex spread; the KPT bound must not
        # exceed it by more than estimation noise.
        assert bound <= 1.5 * best_single

    def test_deterministic_given_seed(self, karate_uc01):
        assert estimate_opt_lower_bound(karate_uc01, 2, seed=5) == estimate_opt_lower_bound(
            karate_uc01, 2, seed=5
        )

    def test_invalid_k(self, karate_uc01):
        with pytest.raises(InvalidParameterError):
            estimate_opt_lower_bound(karate_uc01, 0)

    @pytest.mark.parametrize(
        ("k", "seed", "bound", "theta"),
        [(1, 0, 1.2936311000827125, 4635), (3, 1, 3.0643387424708965, 3913)],
    )
    def test_pinned_values(self, karate_uc01, k, seed, bound, theta):
        # Exact KPT values: the RR weights are summed left to right, so any
        # change in sampling or summation order shows here.
        assert estimate_opt_lower_bound(karate_uc01, k, seed=seed) == bound
        assert determine_theta(karate_uc01, k, epsilon=0.2, seed=seed) == theta


class TestDetermineTheta:
    def test_positive_integer(self, karate_uc01):
        theta = determine_theta(karate_uc01, 1, epsilon=0.3, seed=0)
        assert isinstance(theta, int)
        assert theta >= 1

    def test_smaller_epsilon_needs_more_samples(self, karate_uc01):
        loose = determine_theta(karate_uc01, 1, epsilon=0.5, opt_lower_bound=3.0)
        tight = determine_theta(karate_uc01, 1, epsilon=0.1, opt_lower_bound=3.0)
        assert tight > loose

    def test_larger_opt_needs_fewer_samples(self, karate_uc01):
        small_opt = determine_theta(karate_uc01, 1, epsilon=0.2, opt_lower_bound=1.0)
        large_opt = determine_theta(karate_uc01, 1, epsilon=0.2, opt_lower_bound=10.0)
        assert large_opt < small_opt

    def test_invalid_opt(self, karate_uc01):
        with pytest.raises(InvalidParameterError):
            determine_theta(karate_uc01, 1, opt_lower_bound=0.0)

    def test_worst_case_theta_far_above_empirical(self, karate_uc01):
        # The paper's Table 5 gap: the guaranteed theta dwarfs the few
        # thousand RR sets that suffice empirically on Karate.
        theta = determine_theta(karate_uc01, 1, epsilon=0.05, opt_lower_bound=3.4)
        assert theta > 4096


class TestAdaptiveSampleNumber:
    def test_deterministic_graph_converges_immediately(self):
        graph = star(6)
        oracle = RRPoolOracle(graph, pool_size=2000, seed=0)
        outcome = adaptive_sample_number(
            graph, 1, estimator_factory("snapshot"), oracle, initial_samples=1, max_samples=64
        )
        assert outcome.converged
        assert outcome.sample_number <= 4
        assert outcome.result.seed_set == (0,)

    def test_trace_scores_non_decreasing_within_tolerance(self, karate_uc01, karate_oracle):
        outcome = adaptive_sample_number(
            karate_uc01, 1, estimator_factory("snapshot"), karate_oracle,
            initial_samples=1, max_samples=256, relative_tolerance=0.02, seed=4,
        )
        assert outcome.sample_number <= 256
        assert len(outcome.trace) >= 2

    def test_budget_respected_without_convergence(self, karate_uc01, karate_oracle):
        outcome = adaptive_sample_number(
            karate_uc01, 1, estimator_factory("oneshot"), karate_oracle,
            initial_samples=1, max_samples=4, relative_tolerance=1e-9, seed=5,
        )
        assert outcome.sample_number <= 4

    def test_oneshot_gains_a_stopping_rule(self, karate_uc01, karate_oracle):
        # The paper's open direction: Oneshot with an automatically chosen
        # sample number reaches near-best quality on Karate.
        outcome = adaptive_sample_number(
            karate_uc01, 1, estimator_factory("oneshot"), karate_oracle,
            initial_samples=4, max_samples=512, relative_tolerance=0.02, seed=6,
        )
        best = karate_oracle.top_vertices(1)[0][1]
        assert karate_oracle.spread(outcome.result.seed_set) >= 0.8 * best

    def test_invalid_parameters(self, karate_uc01, karate_oracle):
        with pytest.raises(InvalidParameterError):
            adaptive_sample_number(
                karate_uc01, 1, estimator_factory("ris"), karate_oracle,
                initial_samples=10, max_samples=5,
            )
        with pytest.raises(InvalidParameterError):
            adaptive_sample_number(
                karate_uc01, 1, estimator_factory("ris"), karate_oracle,
                relative_tolerance=0.0,
            )
