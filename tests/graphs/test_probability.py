"""Tests for the edge-probability models (uc / iwc / owc / trivalency)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, UnknownProbabilityModelError
from repro.graphs.builder import GraphBuilder
from repro.graphs.datasets import load_dataset
from repro.graphs.probability import (
    PROBABILITY_MODELS,
    TRIVALENCY_VALUES,
    assign_probabilities,
    in_degree_weighted_cascade,
    out_degree_weighted_cascade,
    trivalency,
    uniform_cascade,
)


@pytest.fixture
def small_graph():
    builder = GraphBuilder(4)
    builder.add_edge(0, 1)
    builder.add_edge(0, 2)
    builder.add_edge(1, 2)
    builder.add_edge(3, 2)
    builder.add_edge(2, 0)
    return builder.build(name="small")


class TestUniformCascade:
    def test_constant_value(self, small_graph):
        graph = uniform_cascade(small_graph, 0.1)
        _, _, probs = graph.edge_arrays()
        assert np.allclose(probs, 0.1)

    def test_invalid_probability(self, small_graph):
        with pytest.raises(InvalidParameterError):
            uniform_cascade(small_graph, 0.0)
        with pytest.raises(InvalidParameterError):
            uniform_cascade(small_graph, 1.5)

    def test_topology_preserved(self, small_graph):
        graph = uniform_cascade(small_graph, 0.1)
        assert graph.num_edges == small_graph.num_edges
        assert graph.out_degrees().tolist() == small_graph.out_degrees().tolist()


class TestInDegreeWeightedCascade:
    def test_probabilities_are_reciprocal_in_degree(self, small_graph):
        graph = in_degree_weighted_cascade(small_graph)
        for edge in graph.edges():
            assert edge.probability == pytest.approx(1.0 / graph.in_degree(edge.target))

    def test_incoming_mass_is_one(self, small_graph):
        graph = in_degree_weighted_cascade(small_graph)
        for vertex in graph.vertices:
            if graph.in_degree(vertex) > 0:
                assert float(graph.in_probabilities(vertex).sum()) == pytest.approx(1.0)

    def test_on_karate(self):
        graph = in_degree_weighted_cascade(load_dataset("karate"))
        incoming = [float(graph.in_probabilities(v).sum()) for v in graph.vertices]
        assert all(total == pytest.approx(1.0) for total in incoming)


class TestOutDegreeWeightedCascade:
    def test_probabilities_are_reciprocal_out_degree(self, small_graph):
        graph = out_degree_weighted_cascade(small_graph)
        for edge in graph.edges():
            assert edge.probability == pytest.approx(1.0 / graph.out_degree(edge.source))

    def test_outgoing_mass_is_one(self, small_graph):
        graph = out_degree_weighted_cascade(small_graph)
        for vertex in graph.vertices:
            if graph.out_degree(vertex) > 0:
                assert float(graph.out_probabilities(vertex).sum()) == pytest.approx(1.0)

    def test_expected_live_edges_equals_non_sink_vertices(self, small_graph):
        graph = out_degree_weighted_cascade(small_graph)
        non_sinks = sum(1 for v in graph.vertices if graph.out_degree(v) > 0)
        assert graph.expected_live_edges == pytest.approx(non_sinks)


class TestTrivalency:
    def test_values_from_allowed_set(self, small_graph):
        graph = trivalency(small_graph, seed=3)
        _, _, probs = graph.edge_arrays()
        assert set(np.round(probs, 6)) <= {round(v, 6) for v in TRIVALENCY_VALUES}

    def test_deterministic_given_seed(self, small_graph):
        a = trivalency(small_graph, seed=3)
        b = trivalency(small_graph, seed=3)
        assert a == b

    def test_different_seed_differs_on_larger_graph(self):
        graph = load_dataset("karate")
        a = trivalency(graph, seed=1)
        b = trivalency(graph, seed=2)
        assert a != b


class TestAssignProbabilities:
    @pytest.mark.parametrize("model", PROBABILITY_MODELS)
    def test_all_named_models_run(self, small_graph, model):
        graph = assign_probabilities(small_graph, model)
        assert graph.num_edges == small_graph.num_edges
        assert model in graph.name

    def test_uc_custom_value(self, small_graph):
        graph = assign_probabilities(small_graph, "uc0.05")
        _, _, probs = graph.edge_arrays()
        assert np.allclose(probs, 0.05)

    def test_unknown_model_raises(self, small_graph):
        with pytest.raises(UnknownProbabilityModelError):
            assign_probabilities(small_graph, "nope")

    def test_uc_with_garbage_suffix_raises(self, small_graph):
        with pytest.raises(UnknownProbabilityModelError):
            assign_probabilities(small_graph, "ucx")

    def test_name_suffix(self, small_graph):
        graph = assign_probabilities(small_graph, "iwc")
        assert graph.name == "small (iwc)"
