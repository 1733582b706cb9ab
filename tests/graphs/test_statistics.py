"""Tests for the Table 3 network statistics."""

from __future__ import annotations

import pytest

from repro.graphs.builder import GraphBuilder
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import complete, path, star
from repro.graphs.statistics import (
    average_distance,
    clustering_coefficient,
    network_statistics,
    weak_components,
)


def triangle_graph():
    builder = GraphBuilder(3)
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        builder.add_undirected_edge(u, v)
    return builder.build(name="triangle")


class TestClusteringCoefficient:
    def test_triangle_is_one(self):
        assert clustering_coefficient(triangle_graph()) == pytest.approx(1.0)

    def test_star_is_zero(self):
        assert clustering_coefficient(star(5)) == 0.0

    def test_path_is_zero(self):
        assert clustering_coefficient(path(5)) == 0.0

    def test_complete_graph_is_one(self):
        assert clustering_coefficient(complete(5)) == pytest.approx(1.0)

    def test_karate_close_to_paper_value(self):
        # The paper's Table 3 reports 0.26 for Karate (global clustering).
        value = clustering_coefficient(load_dataset("karate"))
        assert value == pytest.approx(0.26, abs=0.03)

    def test_empty_graph(self):
        builder = GraphBuilder(3)
        assert clustering_coefficient(builder.build()) == 0.0


class TestAverageDistance:
    def test_single_vertex(self):
        assert average_distance(GraphBuilder(1).build()) == 0.0

    def test_two_connected_vertices(self):
        builder = GraphBuilder(2)
        builder.add_undirected_edge(0, 1)
        assert average_distance(builder.build()) == pytest.approx(1.0)

    def test_path_graph(self):
        # Undirected projection of the directed path 0-1-2: distances 1,1,2 each way.
        assert average_distance(path(3)) == pytest.approx((1 + 1 + 2 + 1 + 1 + 2) / 6)

    def test_karate_close_to_paper_value(self):
        # The paper's Table 3 reports average distance 2.41 for Karate.
        assert average_distance(load_dataset("karate")) == pytest.approx(2.41, abs=0.05)

    def test_sampled_estimate_close_to_exact(self):
        graph = load_dataset("ba_d", scale=0.3)
        exact = average_distance(graph, max_sources=graph.num_vertices)
        sampled = average_distance(graph, max_sources=60, seed=0)
        assert sampled == pytest.approx(exact, rel=0.2)


class TestWeakComponents:
    def test_connected_graph_single_component(self):
        assert len(weak_components(triangle_graph())) == 1

    def test_isolated_vertices_are_components(self):
        builder = GraphBuilder(4)
        builder.add_edge(0, 1)
        components = weak_components(builder.build())
        assert len(components) == 3
        assert sorted(len(c) for c in components) == [1, 1, 2]

    def test_components_sorted_by_size(self):
        builder = GraphBuilder(6)
        builder.add_edge(0, 1)
        builder.add_edge(2, 3)
        builder.add_edge(3, 4)
        components = weak_components(builder.build())
        assert [len(c) for c in components] == [3, 2, 1]


class TestNetworkStatistics:
    def test_karate_row_matches_paper(self):
        stats = network_statistics(load_dataset("karate"))
        assert stats.num_vertices == 34
        assert stats.num_edges == 156
        assert stats.max_out_degree == 17
        assert stats.max_in_degree == 17
        assert stats.clustering_coefficient == pytest.approx(0.26, abs=0.03)
        assert stats.average_distance == pytest.approx(2.41, abs=0.05)
        assert stats.num_weak_components == 1
        assert stats.largest_weak_component == 34

    def test_as_row_keys(self):
        row = network_statistics(star(3)).as_row()
        assert {"network", "n", "m", "max_out_degree", "max_in_degree"} <= set(row)

    def test_expected_live_edges_tracks_probability(self):
        from repro.graphs.probability import assign_probabilities

        graph = assign_probabilities(load_dataset("karate"), "uc0.1")
        stats = network_statistics(graph)
        assert stats.expected_live_edges == pytest.approx(15.6)
