"""Tests for the linear threshold (LT) model extension."""

from __future__ import annotations

import pytest

from reference_kernels import lt_reachable_set_reference
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.linear_threshold import (
    exact_lt_spread,
    sample_lt_rr_set,
    sample_lt_snapshot,
    simulate_lt_cascade,
    validate_lt_weights,
)
from repro.diffusion.models import LINEAR_THRESHOLD
from repro.diffusion.random_source import RandomSource
from repro.diffusion.snapshot_lanes import SnapshotLanes
from repro.exceptions import InvalidParameterError
from repro.graphs.builder import GraphBuilder
from repro.graphs.datasets import load_dataset
from repro.graphs.probability import in_degree_weighted_cascade, uniform_cascade


@pytest.fixture
def lt_chain():
    """0 -> 1 -> 2 with weight 0.5 on each edge (valid LT instance)."""
    builder = GraphBuilder(3, default_probability=0.5)
    builder.add_edge(0, 1)
    builder.add_edge(1, 2)
    return builder.build(name="lt_chain")


@pytest.fixture
def karate_lt():
    """Karate under iwc: incoming weights sum to exactly one (valid LT)."""
    return in_degree_weighted_cascade(load_dataset("karate"))


class TestValidation:
    def test_iwc_is_valid(self, karate_lt):
        validate_lt_weights(karate_lt)

    def test_deterministic_star_is_valid(self, star_graph):
        # Each leaf has exactly one incoming edge with weight 1.
        validate_lt_weights(star_graph)

    def test_overweight_vertex_rejected(self):
        builder = GraphBuilder(3, default_probability=0.8)
        builder.add_edge(0, 2)
        builder.add_edge(1, 2)
        with pytest.raises(InvalidParameterError):
            validate_lt_weights(builder.build())


class TestForwardSimulation:
    def test_deterministic_star(self, star_graph, rng):
        result = simulate_lt_cascade(star_graph, (0,), rng)
        assert result.num_activated == 6

    def test_leaf_seed(self, star_graph, rng):
        assert simulate_lt_cascade(star_graph, (3,), rng).activated == (3,)

    def test_deterministic_path(self, path_graph, rng):
        assert simulate_lt_cascade(path_graph, (0,), rng).num_activated == 4

    def test_cost_accounting(self, star_graph, rng):
        cost = TraversalCost()
        simulate_lt_cascade(star_graph, (0,), rng, cost=cost)
        assert cost.vertices == 6
        assert cost.edges == 5

    def test_unbiased_against_exact(self, lt_chain):
        exact = exact_lt_spread(lt_chain, (0,))
        estimate = LINEAR_THRESHOLD.simulate_spread(lt_chain, (0,), 6000, RandomSource(4))
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_spread_monotone_in_seed_set(self, karate_lt):
        small = LINEAR_THRESHOLD.simulate_spread(karate_lt, (0,), 400, RandomSource(1))
        large = LINEAR_THRESHOLD.simulate_spread(karate_lt, (0, 33), 400, RandomSource(1))
        assert large > small


class TestExactLTSpread:
    def test_chain_by_hand(self, lt_chain):
        # Inf(0) = 1 + 0.5 + 0.5 * 0.5 = 1.75 (same as IC on a path).
        assert exact_lt_spread(lt_chain, (0,)) == pytest.approx(1.75)

    def test_deterministic_star(self, star_graph):
        assert exact_lt_spread(star_graph, (0,)) == pytest.approx(6.0)

    def test_sink_seed(self, lt_chain):
        assert exact_lt_spread(lt_chain, (2,)) == pytest.approx(1.0)

    def test_too_large_rejected(self):
        graph = uniform_cascade(load_dataset("ba_d", scale=0.2), 0.01)
        with pytest.raises(InvalidParameterError):
            exact_lt_spread(graph, (0,))


class TestLTSnapshots:
    def test_at_most_one_parent(self, karate_lt):
        snapshot = sample_lt_snapshot(karate_lt, RandomSource(3))
        assert snapshot.parent.shape[0] == karate_lt.num_vertices
        assert snapshot.num_live_edges <= karate_lt.num_vertices

    def test_parent_is_an_in_neighbor(self, karate_lt):
        snapshot = sample_lt_snapshot(karate_lt, RandomSource(5))
        for vertex, parent in enumerate(snapshot.parent.tolist()):
            if parent >= 0:
                assert parent in set(karate_lt.in_neighbors(vertex).tolist())

    def test_iwc_always_selects_a_parent(self, karate_lt):
        # Under iwc the incoming weights sum to exactly 1, so every vertex
        # with at least one in-edge selects a parent.
        snapshot = sample_lt_snapshot(karate_lt, RandomSource(6))
        for vertex in karate_lt.vertices:
            if karate_lt.in_degree(vertex) > 0:
                assert snapshot.parent[vertex] >= 0

    def test_sample_size_accounting(self, karate_lt):
        size = SampleSize()
        snapshot = sample_lt_snapshot(karate_lt, RandomSource(7), sample_size=size)
        assert size.edges == snapshot.num_live_edges

    def test_reachability_on_deterministic_star(self, star_graph):
        snapshot = sample_lt_snapshot(star_graph, RandomSource(0))
        assert lt_reachable_set_reference(snapshot, (0,)) == set(range(6))
        assert lt_reachable_set_reference(snapshot, (2,)) == {2}

    def test_snapshot_estimator_unbiased(self, lt_chain):
        exact = exact_lt_spread(lt_chain, (0,))
        rng = RandomSource(8)
        trials = 4000
        lanes = SnapshotLanes(
            [sample_lt_snapshot(lt_chain, rng).to_snapshot() for _ in range(trials)]
        )
        assert lanes.reachable_count((0,)) / trials == pytest.approx(exact, rel=0.05)


class TestLTRRSets:
    def test_target_included(self, karate_lt):
        for seed in range(10):
            rr_set = sample_lt_rr_set(karate_lt, RandomSource(seed))
            assert rr_set.target in rr_set.vertices

    def test_rr_set_is_a_path_backwards(self, karate_lt):
        # LT RR sets are random walks, so their size is at most the walk
        # length, which is bounded by n.
        rr_set = sample_lt_rr_set(karate_lt, RandomSource(2), target=5)
        assert 1 <= rr_set.size <= karate_lt.num_vertices

    def test_identity_on_chain(self, lt_chain):
        # Pr[R intersects {0}] should equal Inf_LT({0}) / n.
        exact = exact_lt_spread(lt_chain, (0,))
        rng = RandomSource(9)
        hits = 0
        trials = 8000
        for _ in range(trials):
            if 0 in sample_lt_rr_set(lt_chain, rng).vertices:
                hits += 1
        estimate = lt_chain.num_vertices * hits / trials
        assert estimate == pytest.approx(exact, rel=0.08)

    def test_cost_accounting(self, karate_lt):
        cost = TraversalCost()
        size = SampleSize()
        rr_set = sample_lt_rr_set(karate_lt, RandomSource(1), cost=cost, sample_size=size)
        assert cost.vertices >= rr_set.size
        assert size.vertices == rr_set.size
