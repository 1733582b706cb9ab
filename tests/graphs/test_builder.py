"""Tests for GraphBuilder and graph_from_edge_list."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphConstructionError, InvalidParameterError
from repro.graphs.builder import GraphBuilder, graph_from_edge_list


class TestGraphBuilder:
    def test_build_infers_vertex_count(self):
        builder = GraphBuilder()
        builder.add_edge(0, 5)
        graph = builder.build()
        assert graph.num_vertices == 6
        assert graph.num_edges == 1

    def test_build_with_fixed_vertex_count(self):
        builder = GraphBuilder(10)
        builder.add_edge(0, 1)
        assert builder.build().num_vertices == 10

    def test_empty_builder(self):
        assert GraphBuilder().build().num_vertices == 0
        assert GraphBuilder(3).build().num_vertices == 3

    def test_default_probability_applied(self):
        builder = GraphBuilder(default_probability=0.25)
        builder.add_edge(0, 1)
        graph = builder.build()
        assert graph.out_probabilities(0).tolist() == [0.25]

    def test_explicit_probability_overrides_default(self):
        builder = GraphBuilder(default_probability=0.25)
        builder.add_edge(0, 1, 0.75)
        assert builder.build().out_probabilities(0).tolist() == [0.75]

    def test_invalid_default_probability(self):
        with pytest.raises(InvalidParameterError):
            GraphBuilder(default_probability=0.0)

    def test_self_loop_rejected(self):
        builder = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            builder.add_edge(2, 2)

    def test_negative_vertex_rejected(self):
        builder = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            builder.add_edge(-1, 0)

    def test_edge_beyond_fixed_count_rejected(self):
        builder = GraphBuilder(3)
        with pytest.raises(GraphConstructionError):
            builder.add_edge(0, 3)

    def test_duplicate_edge_rejected_by_default(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        with pytest.raises(GraphConstructionError):
            builder.add_edge(0, 1)

    def test_duplicate_edge_allowed_when_enabled(self):
        builder = GraphBuilder(allow_duplicate_edges=True)
        builder.add_edge(0, 1)
        builder.add_edge(0, 1)
        assert builder.build().num_edges == 2

    def test_has_edge(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        assert builder.has_edge(0, 1)
        assert not builder.has_edge(1, 0)

    def test_has_edge_unavailable_with_duplicates(self):
        builder = GraphBuilder(allow_duplicate_edges=True)
        with pytest.raises(GraphConstructionError):
            builder.has_edge(0, 1)

    def test_add_edges_bulk_with_and_without_probabilities(self):
        builder = GraphBuilder()
        builder.add_edges([(0, 1), (1, 2, 0.5)])
        graph = builder.build()
        assert graph.num_edges == 2
        assert graph.out_probabilities(1).tolist() == [0.5]

    def test_add_edges_bad_tuple_length(self):
        builder = GraphBuilder()
        with pytest.raises(GraphConstructionError):
            builder.add_edges([(0, 1, 0.5, 7)])

    def test_add_undirected_edge_adds_both_directions(self):
        builder = GraphBuilder()
        builder.add_undirected_edge(0, 1, 0.3)
        graph = builder.build()
        assert graph.num_edges == 2
        assert graph.out_neighbors(0).tolist() == [1]
        assert graph.out_neighbors(1).tolist() == [0]


class TestGraphFromEdgeList:
    def test_directed(self):
        graph = graph_from_edge_list([(0, 1), (1, 2)], name="chain")
        assert graph.num_edges == 2
        assert graph.name == "chain"

    def test_undirected_doubles_edges(self):
        graph = graph_from_edge_list([(0, 1), (1, 2)], directed=False)
        assert graph.num_edges == 4

    def test_constant_probability(self):
        graph = graph_from_edge_list([(0, 1)], probability=0.2)
        assert graph.out_probabilities(0).tolist() == [0.2]

    def test_fixed_vertex_count(self):
        graph = graph_from_edge_list([(0, 1)], num_vertices=7)
        assert graph.num_vertices == 7


class TestDuplicatePolicies:
    """on_duplicate={"error","first","last","allow"} on the builder."""

    def test_error_policy_is_the_default(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1, 0.5)
        with pytest.raises(GraphConstructionError, match=r"duplicate edge \(0, 1\)"):
            builder.add_edge(0, 1, 0.25)

    def test_error_message_names_the_context(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1, 0.5, context="line 3")
        with pytest.raises(GraphConstructionError, match="line 7.*first listed at line 3"):
            builder.add_edge(0, 1, 0.25, context="line 7")

    def test_first_policy_keeps_first_probability(self):
        builder = GraphBuilder(on_duplicate="first")
        builder.add_edge(0, 1, 0.5)
        builder.add_edge(0, 1, 0.25)
        graph = builder.build()
        assert graph.num_edges == 1
        assert graph.out_probabilities(0)[0] == 0.5

    def test_last_policy_keeps_last_probability(self):
        builder = GraphBuilder(on_duplicate="last")
        builder.add_edge(0, 1, 0.5)
        builder.add_edge(2, 1, 0.75)
        builder.add_edge(0, 1, 0.25)
        graph = builder.build()
        assert graph.num_edges == 2
        # position of the first occurrence, probability of the last
        assert graph.out_probabilities(0)[0] == 0.25
        assert graph.out_probabilities(2)[0] == 0.75

    def test_allow_policy_keeps_parallel_edges(self):
        builder = GraphBuilder(on_duplicate="allow")
        builder.add_edge(0, 1, 0.5)
        builder.add_edge(0, 1, 0.25)
        assert builder.build().num_edges == 2

    def test_legacy_boolean_maps_to_allow(self):
        builder = GraphBuilder(allow_duplicate_edges=True)
        builder.add_edge(0, 1)
        builder.add_edge(0, 1)
        assert builder.build().num_edges == 2

    def test_conflicting_legacy_flag_and_policy_rejected(self):
        with pytest.raises(GraphConstructionError, match="conflicts"):
            GraphBuilder(allow_duplicate_edges=True, on_duplicate="error")

    def test_unknown_policy_rejected(self):
        with pytest.raises(GraphConstructionError, match="on_duplicate"):
            GraphBuilder(on_duplicate="merge")

    def test_reversed_pair_is_not_a_duplicate(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        builder.add_edge(1, 0)
        assert builder.build().num_edges == 2

    def test_has_edge_works_under_first_and_last(self):
        for policy in ("first", "last"):
            builder = GraphBuilder(on_duplicate=policy)
            builder.add_edge(0, 1)
            assert builder.has_edge(0, 1)
            assert not builder.has_edge(1, 0)
