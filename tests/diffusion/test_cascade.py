"""Tests for forward IC cascade simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.cascade import (
    activation_probabilities,
    simulate_cascade,
    simulate_spread,
)
from repro.diffusion.costs import TraversalCost
from repro.diffusion.exact import exact_spread
from repro.diffusion.random_source import RandomSource
from repro.exceptions import InvalidParameterError, InvalidSeedSetError
from repro.graphs.builder import GraphBuilder


class TestDeterministicGraphs:
    def test_star_activates_everything(self, star_graph, rng):
        result = simulate_cascade(star_graph, (0,), rng)
        assert result.num_activated == 6
        assert set(result.activated) == set(range(6))

    def test_leaf_seed_activates_only_itself(self, star_graph, rng):
        result = simulate_cascade(star_graph, (3,), rng)
        assert result.activated == (3,)

    def test_path_propagates_fully(self, path_graph, rng):
        result = simulate_cascade(path_graph, (0,), rng)
        assert result.num_activated == 4

    def test_path_from_middle(self, path_graph, rng):
        result = simulate_cascade(path_graph, (2,), rng)
        assert set(result.activated) == {2, 3}

    def test_multiple_seeds(self, two_hubs_graph, rng):
        result = simulate_cascade(two_hubs_graph, (0, 4), rng)
        assert result.num_activated == 7

    def test_contains_dunder(self, star_graph, rng):
        result = simulate_cascade(star_graph, (0,), rng)
        assert 3 in result
        assert 99 not in result


class TestSeedValidation:
    def test_out_of_range_seed(self, star_graph, rng):
        with pytest.raises(InvalidSeedSetError):
            simulate_cascade(star_graph, (10,), rng)

    def test_duplicate_seed(self, star_graph, rng):
        with pytest.raises(InvalidSeedSetError):
            simulate_cascade(star_graph, [0, 0], rng)

    def test_negative_seed(self, star_graph, rng):
        with pytest.raises(InvalidSeedSetError):
            simulate_cascade(star_graph, (-1,), rng)


class TestCostAccounting:
    def test_star_costs(self, star_graph, rng):
        cost = TraversalCost()
        simulate_cascade(star_graph, (0,), rng, cost=cost)
        # All 6 vertices activate; only the centre has out-edges (5 of them).
        assert cost.vertices == 6
        assert cost.edges == 5

    def test_leaf_costs(self, star_graph, rng):
        cost = TraversalCost()
        simulate_cascade(star_graph, (3,), rng, cost=cost)
        assert cost.vertices == 1
        assert cost.edges == 0

    def test_cost_accumulates_over_calls(self, star_graph, rng):
        cost = TraversalCost()
        simulate_cascade(star_graph, (0,), rng, cost=cost)
        simulate_cascade(star_graph, (0,), rng, cost=cost)
        assert cost.vertices == 12

    def test_zero_probability_edges_still_examined(self, rng):
        builder = GraphBuilder(3, default_probability=0.001)
        builder.add_edge(0, 1)
        builder.add_edge(0, 2)
        cost = TraversalCost()
        simulate_cascade(builder.build(), (0,), rng, cost=cost)
        # Both out-edges receive a coin flip even though activation is unlikely.
        assert cost.edges == 2


class TestStochasticBehaviour:
    def test_unbiasedness_on_diamond(self, probabilistic_diamond):
        exact = exact_spread(probabilistic_diamond, (0,))
        estimate = simulate_spread(
            probabilistic_diamond, (0,), 4000, RandomSource(11)
        )
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_spread_bounded_by_graph_size(self, probabilistic_diamond):
        estimate = simulate_spread(probabilistic_diamond, (0,), 500, RandomSource(3))
        assert 1.0 <= estimate <= 4.0

    def test_determinism_given_rng(self, karate_uc01):
        a = simulate_cascade(karate_uc01, (0,), RandomSource(5).generator)
        b = simulate_cascade(karate_uc01, (0,), RandomSource(5).generator)
        assert a.activated == b.activated

    def test_invalid_simulation_count(self, star_graph):
        with pytest.raises(InvalidParameterError):
            simulate_spread(star_graph, (0,), 0, RandomSource(0))
        # The bit-parallel path validates up front too, naming the bad value.
        with pytest.raises(InvalidParameterError, match="-3"):
            simulate_spread(star_graph, (0,), -3, RandomSource(0), batch_mode="bitparallel")
        with pytest.raises(InvalidParameterError, match="rng"):
            simulate_spread(star_graph, (0,), 4, None, batch_mode="bitparallel")

    def test_monotone_in_seed_set_on_average(self, karate_uc01):
        small = simulate_spread(karate_uc01, (0,), 600, RandomSource(1))
        large = simulate_spread(karate_uc01, (0, 33), 600, RandomSource(1))
        assert large > small


class TestActivationProbabilities:
    def test_deterministic_star(self, star_graph):
        probs = activation_probabilities(star_graph, (0,), 50, RandomSource(0))
        assert np.allclose(probs, 1.0)

    def test_unreachable_vertices_never_activate(self, two_hubs_graph):
        probs = activation_probabilities(two_hubs_graph, (0,), 50, RandomSource(0))
        assert probs[0] == 1.0
        assert probs[5] == 0.0
        assert probs[6] == 0.0

    def test_probabilities_in_unit_interval(self, karate_uc01):
        probs = activation_probabilities(karate_uc01, (0,), 100, RandomSource(2))
        assert probs.min() >= 0.0
        assert probs.max() <= 1.0
        assert probs[0] == 1.0
