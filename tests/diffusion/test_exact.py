"""Tests for exact spread computation by live-edge enumeration."""

from __future__ import annotations

import pytest

from repro.diffusion.exact import (
    MAX_EXACT_EDGES,
    exact_optimal_seed_set,
    exact_spread,
)
from repro.exceptions import InvalidParameterError
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators import path, star


class TestExactSpread:
    def test_deterministic_star(self):
        graph = star(4)
        assert exact_spread(graph, (0,)) == pytest.approx(5.0)
        assert exact_spread(graph, (1,)) == pytest.approx(1.0)

    def test_deterministic_path(self):
        graph = path(4)
        assert exact_spread(graph, (0,)) == pytest.approx(4.0)
        assert exact_spread(graph, (2,)) == pytest.approx(2.0)

    def test_single_edge_half_probability(self):
        builder = GraphBuilder(2, default_probability=0.5)
        builder.add_edge(0, 1)
        graph = builder.build()
        assert exact_spread(graph, (0,)) == pytest.approx(1.5)
        assert exact_spread(graph, (1,)) == pytest.approx(1.0)

    def test_two_hop_chain(self):
        builder = GraphBuilder(3, default_probability=0.5)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        graph = builder.build()
        # Inf(0) = 1 + 0.5 + 0.25 = 1.75
        assert exact_spread(graph, (0,)) == pytest.approx(1.75)

    def test_diamond_by_hand(self, probabilistic_diamond):
        # Inf(0) = 1 + 0.5 + 0.5 + P(3 reached); P(3 reached) = 1 - (1 - 0.25)^2 = 0.4375
        assert exact_spread(probabilistic_diamond, (0,)) == pytest.approx(2.4375)

    def test_seed_set_union(self, probabilistic_diamond):
        value = exact_spread(probabilistic_diamond, (1, 2))
        # Both middles seeded: 2 + P(3) = 2 + 1 - 0.5^2 = 2.75
        assert value == pytest.approx(2.75)

    def test_monotonicity(self, probabilistic_diamond):
        assert exact_spread(probabilistic_diamond, (0, 1)) >= exact_spread(
            probabilistic_diamond, (0,)
        )

    def test_submodularity_on_diamond(self, probabilistic_diamond):
        # f(S + v) - f(S) >= f(T + v) - f(T) for S subset T, v outside T.
        small_gain = exact_spread(probabilistic_diamond, (1, 2)) - exact_spread(
            probabilistic_diamond, (1,)
        )
        large_gain = exact_spread(probabilistic_diamond, (0, 1, 2)) - exact_spread(
            probabilistic_diamond, (0, 1)
        )
        assert small_gain >= large_gain - 1e-12

    def test_edge_limit_enforced(self):
        builder = GraphBuilder(30, default_probability=0.5)
        for index in range(MAX_EXACT_EDGES + 1):
            builder.add_edge(index, index + 1)
        with pytest.raises(InvalidParameterError):
            exact_spread(builder.build(), (0,))


class TestExactHelpers:
    def test_optimal_seed_set_star(self):
        graph = star(4)
        seeds, value = exact_optimal_seed_set(graph, 1)
        assert seeds == (0,)
        assert value == pytest.approx(5.0)

    def test_optimal_pair_two_hubs(self, two_hubs_graph):
        seeds, value = exact_optimal_seed_set(two_hubs_graph, 2)
        assert seeds == (0, 4)
        assert value == pytest.approx(7.0)

    def test_optimal_k_too_large(self, probabilistic_diamond):
        with pytest.raises(InvalidParameterError):
            exact_optimal_seed_set(probabilistic_diamond, 10)
