"""Tests for RR-set generation and the RR-set collection."""

from __future__ import annotations

import pytest

from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.exact import exact_spread
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import RRSetCollection, sample_rr_set, sample_rr_sets


class TestSampleRRSet:
    def test_target_always_included(self, karate_uc01):
        for seed in range(20):
            rr_set = sample_rr_set(karate_uc01, RandomSource(seed))
            assert rr_set.target in rr_set.vertices

    def test_fixed_target(self, karate_uc01, rng):
        rr_set = sample_rr_set(karate_uc01, rng, target=5)
        assert rr_set.target == 5

    def test_deterministic_star_rr_set(self, star_graph, rng):
        # In an outward star with p=1, the RR set of a leaf is {leaf, centre},
        # and the RR set of the centre is just {centre}.
        leaf_rr = sample_rr_set(star_graph, rng, target=3)
        assert leaf_rr.vertices == frozenset({0, 3})
        centre_rr = sample_rr_set(star_graph, rng, target=0)
        assert centre_rr.vertices == frozenset({0})

    def test_weight_is_sum_of_in_degrees(self, star_graph, rng):
        rr_set = sample_rr_set(star_graph, rng, target=3)
        expected = sum(star_graph.in_degree(v) for v in rr_set.vertices)
        assert rr_set.weight == expected

    def test_path_rr_set_reaches_all_ancestors(self, path_graph, rng):
        rr_set = sample_rr_set(path_graph, rng, target=3)
        assert rr_set.vertices == frozenset({0, 1, 2, 3})

    def test_cost_and_sample_size_accounting(self, path_graph, rng):
        cost = TraversalCost()
        size = SampleSize()
        rr_set = sample_rr_set(path_graph, rng, target=3, cost=cost, sample_size=size)
        assert cost.vertices == rr_set.size == 4
        assert cost.edges == rr_set.weight == 3
        assert size.vertices == 4
        assert size.edges == 0

    def test_intersects(self, star_graph, rng):
        rr_set = sample_rr_set(star_graph, rng, target=2)
        assert rr_set.intersects({0})
        assert rr_set.intersects((2, 5))
        assert not rr_set.intersects({4})

    def test_empty_graph_raises(self):
        from repro.graphs.builder import GraphBuilder

        with pytest.raises(ValueError):
            sample_rr_set(GraphBuilder(0).build(), RandomSource(0))


class TestRRSetIdentity:
    """Pr[R intersects S] == Inf(S) / n (Borgs et al., Observation 3.2)."""

    def test_identity_on_diamond(self, probabilistic_diamond):
        num_sets = 6000
        rng = RandomSource(17)
        rr_sets = sample_rr_sets(probabilistic_diamond, num_sets, rng)
        for seeds in [(0,), (1,), (0, 3)]:
            hits = sum(1 for rr_set in rr_sets if rr_set.intersects(set(seeds)))
            estimate = probabilistic_diamond.num_vertices * hits / num_sets
            assert estimate == pytest.approx(exact_spread(probabilistic_diamond, seeds), rel=0.08)

    def test_expected_size_is_average_influence(self, star_graph):
        # EPT = sum_v Inf(v) / n; for the outward star with 5 leaves this is
        # (Inf(centre)=6, Inf(leaf)=1 each) -> (6 + 5) / 6 = 11/6.
        rr_sets = sample_rr_sets(star_graph, 3000, RandomSource(23))
        mean_size = sum(rr_set.size for rr_set in rr_sets) / len(rr_sets)
        assert mean_size == pytest.approx(11 / 6, rel=0.05)


class TestRRSetCollection:
    def make_collection(self, graph, count=200, seed=0):
        rr_sets = sample_rr_sets(graph, count, RandomSource(seed))
        return RRSetCollection(rr_sets, graph.num_vertices), rr_sets

    def test_counts(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        assert collection.num_total == len(rr_sets) == 200
        assert collection.num_alive == 200
        assert collection.total_size == sum(r.size for r in rr_sets)
        assert collection.total_weight == sum(r.weight for r in rr_sets)

    def test_coverage_matches_membership(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        for vertex in (0, 16, 33):
            expected = sum(1 for r in rr_sets if vertex in r.vertices)
            assert collection.coverage(vertex) == expected

    def test_fraction_covered(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        expected = sum(1 for r in rr_sets if r.intersects({0, 33})) / len(rr_sets)
        assert collection.fraction_covered({0, 33}) == pytest.approx(expected)

    def test_remove_covered_by(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        before = collection.coverage(0)
        removed = collection.remove_covered_by(0)
        assert removed == before
        assert collection.coverage(0) == 0
        assert collection.num_alive == collection.num_total - removed

    def test_remove_is_idempotent(self, karate_uc01):
        collection, _ = self.make_collection(karate_uc01)
        first = collection.remove_covered_by(0)
        second = collection.remove_covered_by(0)
        assert first > 0
        assert second == 0

    def test_marginal_coverage_after_removal(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        collection.remove_covered_by(0)
        expected = sum(
            1 for r in rr_sets if 33 in r.vertices and 0 not in r.vertices
        )
        assert collection.coverage(33) == expected

    def test_iteration_and_len(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01, count=10)
        assert len(collection) == 10
        assert list(collection) == rr_sets

    def test_centre_dominates_star_coverage(self, star_graph):
        collection, _ = self.make_collection(star_graph, count=500, seed=2)
        centre_coverage = collection.coverage(0)
        assert all(
            centre_coverage >= collection.coverage(leaf) for leaf in range(1, 6)
        )
