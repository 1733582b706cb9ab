"""Tests for RR-set generation and the RR-set collection."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.ris import RISEstimator
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.exact import exact_spread
from repro.diffusion.models import get_model
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import RRSetCollection, sample_rr_set, sample_rr_sets
from repro.estimation.oracle import RRPoolOracle
from repro.graphs.generators import directed_scale_free
from repro.graphs.probability import in_degree_weighted_cascade


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
            hits = sum(1 for rr_set in rr_sets if not rr_set.vertices.isdisjoint(seeds))
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

    def test_weights_column_is_read_only(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        assert collection.weights.tolist() == [r.weight for r in rr_sets]
        with pytest.raises(ValueError):
            collection.weights[0] = 0

    def test_coverage_matches_membership(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        for vertex in (0, 16, 33):
            expected = sum(1 for r in rr_sets if vertex in r.vertices)
            assert collection.coverage(vertex) == expected

    def test_fraction_covered(self, karate_uc01):
        collection, rr_sets = self.make_collection(karate_uc01)
        expected = sum(1 for r in rr_sets if r.vertices & {0, 33}) / len(rr_sets)
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


#: ``(model, batch_mode)`` of every RR kernel feeding the store.
KERNELS = [("ic", None), ("ic", "bitparallel"), ("lt", None)]


def _store(graph, kernel, seed=7, jobs=None):
    model, batch_mode = kernel
    return get_model(model).sample_rr_store(
        graph, 300, RandomSource(seed), jobs=jobs, batch_mode=batch_mode
    )


def _reference_coverage(rr_sets, alive, num_vertices):
    """Per-vertex count of the alive sets, straight from the frozensets."""
    counts = [0] * num_vertices
    for rr_set, is_alive in zip(rr_sets, alive):
        for vertex in rr_set.vertices if is_alive else ():
            counts[vertex] += 1
    return counts


def _as_tuples(collection):
    return [(r.target, r.vertices, r.weight) for r in collection]


class TestStoreMatchesFrozensetModel:
    """The flat store against a list of frozensets, for every kernel."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_updates_and_queries(self, karate_iwc, kernel):
        collection = _store(karate_iwc, kernel)
        model, batch_mode = kernel
        rr_sets = get_model(model).sample_rr_sets(
            karate_iwc, 300, RandomSource(7), batch_mode=batch_mode
        )
        assert list(collection) == rr_sets
        assert collection.total_size == sum(r.size for r in rr_sets)
        assert collection.total_weight == sum(r.weight for r in rr_sets)
        n = karate_iwc.num_vertices
        alive = [True] * len(rr_sets)
        for seeds in [(), (0,), (33,), (0, 33), (2, 5, 31)]:
            expected = sum(1 for r in rr_sets if r.vertices & set(seeds)) / len(rr_sets)
            assert collection.fraction_covered(seeds) == expected
        for vertex in (33, 0, 33, 2, 16, 5, 31):
            expected_removed = 0
            for position, rr_set in enumerate(rr_sets):
                if alive[position] and vertex in rr_set.vertices:
                    alive[position] = False
                    expected_removed += 1
            assert collection.remove_covered_by(vertex) == expected_removed
            assert [collection.coverage(v) for v in range(n)] == _reference_coverage(
                rr_sets, alive, n
            )
            assert collection.num_alive == sum(alive)
        # Update never changes F_R, which is over all sets.
        expected = sum(1 for r in rr_sets if 0 in r.vertices) / len(rr_sets)
        assert collection.fraction_covered([0]) == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_store_is_identical_for_any_jobs(self, karate_iwc, kernel):
        model, batch_mode = kernel
        stores = {}
        for jobs in (None, 1, 2):
            stores[jobs] = _store(karate_iwc, kernel, seed=11, jobs=jobs)
            assert list(stores[jobs]) == get_model(model).sample_rr_sets(
                karate_iwc, 300, RandomSource(11), jobs=jobs, batch_mode=batch_mode
            )
            assert _as_tuples(_store(karate_iwc, kernel, seed=11, jobs=jobs)) == _as_tuples(
                stores[jobs]
            )
        # jobs=None draws one stream; any worker count draws the same split streams.
        assert _as_tuples(stores[1]) == _as_tuples(stores[2])
        for left, right in zip(stores[1].index, stores[2].index):
            assert np.array_equal(left, right)

    def test_legacy_constructor_builds_the_same_store(self, karate_iwc):
        sampled = _store(karate_iwc, ("ic", None))
        rebuilt = RRSetCollection(list(sampled), karate_iwc.num_vertices)
        assert _as_tuples(rebuilt) == _as_tuples(sampled)
        for index_sampled, index_rebuilt in zip(sampled.index, rebuilt.index):
            assert np.array_equal(index_sampled, index_rebuilt)

    def test_empty_collection(self):
        collection = RRSetCollection([], 4)
        assert (len(collection), collection.num_alive, collection.total_size) == (0, 0, 0)
        assert collection.fraction_covered([1]) == 0.0
        assert collection.remove_covered_by(1) == 0
        assert list(collection) == []


class TestOracleMatchesBruteForce:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_counts_match_its_sets(self, karate_iwc, kernel):
        model, batch_mode = kernel
        oracle = RRPoolOracle(
            karate_iwc, pool_size=500, seed=3, model=model, batch_mode=batch_mode
        )
        rr_sets = get_model(model).sample_rr_sets(
            karate_iwc, 500, RandomSource(3), batch_mode=batch_mode
        )
        n = karate_iwc.num_vertices
        for seeds in [(), (0,), (33,), (0, 33), (1, 2, 3, 4)]:
            expected = sum(1 for r in rr_sets if r.vertices & set(seeds))
            assert oracle.coverage_count(seeds) == expected
        counts = _reference_coverage(rr_sets, [True] * len(rr_sets), n)
        assert oracle.single_vertex_spreads().tolist() == [n * c / 500 for c in counts]
        ranked = sorted(range(n), key=lambda v: -counts[v])[:3]
        assert oracle.top_vertices(3) == [(v, n * counts[v] / 500) for v in ranked]
        assert oracle.average_rr_size == sum(r.size for r in rr_sets) / 500


@pytest.fixture(scope="module")
def scale_free_iwc():
    return in_degree_weighted_cascade(directed_scale_free(2000, 10.0))


class TestBuildMemory:
    """RIS Build stores a vertex in a few machine words, not a frozenset slot."""

    @pytest.mark.parametrize("batch_mode", [None, "bitparallel"])
    def test_peak_bytes_per_stored_vertex(self, scale_free_iwc, batch_mode):
        graph = scale_free_iwc
        # Warm the graph's lazily built rows, which are not RIS Build's.
        RISEstimator(64, batch_mode=batch_mode).build(graph, RandomSource(0))
        estimator = RISEstimator(8192, batch_mode=batch_mode)
        tracemalloc.start()
        try:
            estimator.build(graph, RandomSource(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / estimator.collection.total_size <= 48
