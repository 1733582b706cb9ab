"""Tests for the CSR InfluenceGraph core data structure."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError, InvalidProbabilityError, InvalidSeedSetError
from repro.graphs.influence_graph import InfluenceGraph


def make_triangle() -> InfluenceGraph:
    return InfluenceGraph(3, [0, 1, 2], [1, 2, 0], [0.5, 0.25, 1.0], name="triangle")


class TestConstruction:
    def test_basic_counts(self):
        graph = make_triangle()
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert graph.name == "triangle"

    def test_empty_graph(self):
        graph = InfluenceGraph(0, [], [], [])
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_isolated_vertices_allowed(self):
        graph = InfluenceGraph(5, [0], [1], [1.0])
        assert graph.num_vertices == 5
        assert graph.out_degree(4) == 0
        assert graph.in_degree(4) == 0

    def test_default_probabilities_are_one(self):
        graph = InfluenceGraph(2, [0], [1])
        assert graph.out_probabilities(0).tolist() == [1.0]

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphConstructionError):
            InfluenceGraph(-1, [], [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError):
            InfluenceGraph(2, [0], [0])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphConstructionError):
            InfluenceGraph(2, [0], [2])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphConstructionError):
            InfluenceGraph(2, [-1], [1])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GraphConstructionError):
            InfluenceGraph(3, [0, 1], [1])

    def test_zero_probability_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            InfluenceGraph(2, [0], [1], [0.0])

    def test_probability_above_one_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            InfluenceGraph(2, [0], [1], [1.5])

    def test_parallel_edges_allowed(self):
        graph = InfluenceGraph(2, [0, 0], [1, 1], [0.5, 0.25])
        assert graph.num_edges == 2
        assert graph.out_degree(0) == 2


class TestAdjacency:
    def test_out_neighbors(self):
        graph = make_triangle()
        assert graph.out_neighbors(0).tolist() == [1]
        assert graph.out_neighbors(1).tolist() == [2]
        assert graph.out_neighbors(2).tolist() == [0]

    def test_in_neighbors(self):
        graph = make_triangle()
        assert graph.in_neighbors(1).tolist() == [0]
        assert graph.in_neighbors(2).tolist() == [1]
        assert graph.in_neighbors(0).tolist() == [2]

    def test_out_probabilities_aligned(self):
        graph = make_triangle()
        assert graph.out_probabilities(0).tolist() == [0.5]
        assert graph.out_probabilities(1).tolist() == [0.25]

    def test_in_probabilities_aligned(self):
        graph = make_triangle()
        assert graph.in_probabilities(1).tolist() == [0.5]
        assert graph.in_probabilities(0).tolist() == [1.0]

    def test_degrees(self):
        graph = InfluenceGraph(4, [0, 0, 0, 1], [1, 2, 3, 2])
        assert graph.out_degree(0) == 3
        assert graph.in_degree(2) == 2
        assert graph.out_degrees().tolist() == [3, 1, 0, 0]
        assert graph.in_degrees().tolist() == [0, 1, 2, 1]

    def test_vertex_out_of_range_raises(self):
        graph = make_triangle()
        with pytest.raises(InvalidSeedSetError):
            graph.out_neighbors(3)
        with pytest.raises(InvalidSeedSetError):
            graph.in_degree(-1)

    def test_csr_views_are_read_only(self):
        graph = make_triangle()
        indptr, targets, probs = graph.out_csr
        with pytest.raises(ValueError):
            targets[0] = 2
        with pytest.raises(ValueError):
            probs[0] = 0.9
        with pytest.raises(ValueError):
            indptr[0] = 1


class TestDerivedGraphs:
    def test_expected_live_edges(self):
        graph = make_triangle()
        assert graph.expected_live_edges == pytest.approx(1.75)

    def test_edges_iteration_matches_arrays(self):
        graph = make_triangle()
        edges = list(graph.edges())
        sources, targets, probs = graph.edge_arrays()
        assert [e.source for e in edges] == sources.tolist()
        assert [e.target for e in edges] == targets.tolist()
        assert [e.probability for e in edges] == pytest.approx(probs.tolist())

    def test_transpose_reverses_edges(self):
        graph = make_triangle()
        transposed = graph.transpose()
        original = sorted((e.source, e.target, e.probability) for e in graph.edges())
        reversed_edges = sorted((e.target, e.source, e.probability) for e in transposed.edges())
        assert original == reversed_edges

    def test_double_transpose_is_identity(self):
        graph = make_triangle()
        assert graph.transpose().transpose() == graph

    def test_with_probabilities_replaces_all(self):
        graph = make_triangle()
        updated = graph.with_probabilities([0.1, 0.1, 0.1])
        assert updated.expected_live_edges == pytest.approx(0.3)
        # original untouched
        assert graph.expected_live_edges == pytest.approx(1.75)

    def test_with_probabilities_wrong_length_rejected(self):
        graph = make_triangle()
        with pytest.raises(GraphConstructionError):
            graph.with_probabilities([0.1, 0.2])

    def test_with_name(self):
        graph = make_triangle().with_name("renamed")
        assert graph.name == "renamed"
        assert graph.num_edges == 3

    def test_subgraph_relabels_vertices(self):
        graph = InfluenceGraph(5, [0, 1, 3, 3], [1, 2, 4, 2], [0.5] * 4)
        sub = graph.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        # kept edges: 1->2 and 3->2, relabelled to 0->1 and 2->1.
        kept = sorted((e.source, e.target) for e in sub.edges())
        assert kept == [(0, 1), (2, 1)]

    def test_equality_ignores_name(self):
        a = make_triangle()
        b = InfluenceGraph(3, [0, 1, 2], [1, 2, 0], [0.5, 0.25, 1.0], name="other")
        assert a == b

    def test_inequality_on_probability(self):
        a = make_triangle()
        b = InfluenceGraph(3, [0, 1, 2], [1, 2, 0], [0.5, 0.25, 0.5])
        assert a != b


class TestAdjacencyRows:
    """The lazy Python-list rows the scalar kernels walk."""

    def test_rows_match_csr(self):
        graph = InfluenceGraph(4, [0, 0, 2, 3, 1], [1, 2, 1, 1, 3], [0.5, 0.25, 1.0, 0.75, 0.125])
        for rows, neighbors, probabilities in (
            (graph.out_rows, graph.out_neighbors, graph.out_probabilities),
            (graph.in_rows, graph.in_neighbors, graph.in_probabilities),
        ):
            endpoints, probs = rows
            assert endpoints == [neighbors(v).tolist() for v in graph.vertices]
            assert probs == [probabilities(v).tolist() for v in graph.vertices]
            assert all(type(p) is float for row in probs for p in row)

    def test_rows_are_cached(self):
        graph = make_triangle()
        assert graph.out_rows is graph.out_rows
        assert graph.in_rows is graph.in_rows

    def test_pickle_size_unchanged_by_rows(self):
        graph = make_triangle()
        before = len(pickle.dumps(graph))
        graph.out_rows, graph.in_rows
        assert len(pickle.dumps(graph)) == before
        restored = pickle.loads(pickle.dumps(graph))
        assert restored == graph
        assert restored.out_rows == graph.out_rows
        assert restored.in_rows == graph.in_rows

    def test_derived_graphs_build_their_own_rows(self):
        graph = make_triangle()
        graph.out_rows, graph.in_rows
        updated = graph.with_probabilities([0.1, 0.2, 0.3])
        assert updated.out_rows[1] == [[0.1], [0.2], [0.3]]
        assert updated.in_rows[1] == [[0.3], [0.1], [0.2]]
        transposed = graph.transpose()
        assert transposed.out_rows == graph.in_rows
        assert transposed.in_rows == graph.out_rows
        assert graph.out_rows[1] == [[0.5], [0.25], [1.0]]


class TestEdgeOrderInvariance:
    def test_construction_is_order_invariant(self):
        a = InfluenceGraph(4, [0, 1, 2], [1, 2, 3], [0.1, 0.2, 0.3])
        b = InfluenceGraph(4, [2, 0, 1], [3, 1, 2], [0.3, 0.1, 0.2])
        assert a == b

    def test_degrees_with_shuffled_input(self):
        rng = np.random.default_rng(0)
        sources = rng.integers(0, 50, size=300)
        targets = (sources + 1 + rng.integers(0, 48, size=300)) % 50
        order = rng.permutation(300)
        a = InfluenceGraph(50, sources, targets)
        b = InfluenceGraph(50, sources[order], targets[order])
        assert a.out_degrees().tolist() == b.out_degrees().tolist()
        assert a.in_degrees().tolist() == b.in_degrees().tolist()
