"""Tests for the random-graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import generators
from repro.graphs.builder import GraphBuilder
from repro.graphs.influence_graph import InfluenceGraph


class TestBarabasiAlbert:
    def test_edge_count_sparse(self):
        graph = generators.barabasi_albert(100, 1, seed=0)
        # clique on 2 vertices contributes 1 edge, then 98 attachments of 1 each.
        assert graph.num_edges == 1 + 98

    def test_edge_count_dense(self):
        graph = generators.barabasi_albert(200, 5, seed=0)
        initial = 5 * 6 // 2
        assert graph.num_edges == initial + (200 - 6) * 5

    def test_deterministic_given_seed(self):
        a = generators.barabasi_albert(50, 2, seed=3)
        b = generators.barabasi_albert(50, 2, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = generators.barabasi_albert(50, 2, seed=3)
        b = generators.barabasi_albert(50, 2, seed=4)
        assert a != b

    def test_orient_both_doubles_edges(self):
        random_oriented = generators.barabasi_albert(50, 2, seed=0, orient="random")
        both = generators.barabasi_albert(50, 2, seed=0, orient="both")
        assert both.num_edges == 2 * random_oriented.num_edges

    def test_scale_free_skew(self):
        graph = generators.barabasi_albert(500, 1, seed=0, orient="both")
        degrees = graph.out_degrees() + graph.in_degrees()
        # preferential attachment should create hubs far above the mean degree
        assert degrees.max() > 5 * degrees.mean()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            generators.barabasi_albert(5, 5)
        with pytest.raises(InvalidParameterError):
            generators.barabasi_albert(10, 0)
        with pytest.raises(InvalidParameterError):
            generators.barabasi_albert(10, 2, orient="sideways")


class TestErdosRenyi:
    def test_edge_probability_controls_density(self):
        sparse = generators.erdos_renyi(100, 0.01, seed=0)
        dense = generators.erdos_renyi(100, 0.1, seed=0)
        assert dense.num_edges > sparse.num_edges

    def test_zero_probability_gives_empty_graph(self):
        graph = generators.erdos_renyi(50, 0.0, seed=0)
        assert graph.num_edges == 0

    def test_undirected_symmetrised(self):
        graph = generators.erdos_renyi(30, 0.2, seed=1, directed=False)
        pairs = {(e.source, e.target) for e in graph.edges()}
        assert all((target, source) in pairs for source, target in pairs)

    def test_deterministic(self):
        assert generators.erdos_renyi(40, 0.1, seed=9) == generators.erdos_renyi(40, 0.1, seed=9)


class TestWattsStrogatz:
    def test_no_rewiring_keeps_ring_degree(self):
        graph = generators.watts_strogatz(30, 4, 0.0, seed=0)
        # symmetrised ring lattice: every vertex has out-degree k.
        assert set(graph.out_degrees().tolist()) == {4}

    def test_edge_count_preserved_under_rewiring(self):
        before = generators.watts_strogatz(40, 4, 0.0, seed=0)
        after = generators.watts_strogatz(40, 4, 0.5, seed=0)
        assert before.num_edges == after.num_edges

    def test_invalid_neighbor_count(self):
        with pytest.raises(InvalidParameterError):
            generators.watts_strogatz(10, 3, 0.1)
        with pytest.raises(InvalidParameterError):
            generators.watts_strogatz(10, 12, 0.1)


class TestPowerlawCluster:
    def test_edge_count(self):
        graph = generators.powerlaw_cluster(100, 3, 0.5, seed=0)
        initial = 4 * 3 // 2
        expected_undirected = initial + (100 - 4) * 3
        assert graph.num_edges == 2 * expected_undirected

    def test_high_triangle_probability_increases_clustering(self):
        from repro.graphs.statistics import clustering_coefficient

        low = generators.powerlaw_cluster(200, 3, 0.0, seed=5)
        high = generators.powerlaw_cluster(200, 3, 0.9, seed=5)
        assert clustering_coefficient(high) > clustering_coefficient(low)

    def test_deterministic(self):
        a = generators.powerlaw_cluster(80, 2, 0.4, seed=2)
        b = generators.powerlaw_cluster(80, 2, 0.4, seed=2)
        assert a == b


class TestDirectedScaleFree:
    def test_size_and_heavy_tail(self):
        graph = generators.directed_scale_free(400, 5.0, seed=0, hub_bias=0.8)
        assert graph.num_vertices == 400
        in_degrees = graph.in_degrees()
        assert in_degrees.max() > 4 * in_degrees.mean()

    def test_average_out_degree_close_to_requested(self):
        graph = generators.directed_scale_free(500, 6.0, seed=1)
        assert graph.num_edges / graph.num_vertices == pytest.approx(6.0, rel=0.25)

    def test_invalid_out_degree(self):
        for bad in (0.0, -2.0, float("nan"), float("inf"), float("-inf"), True, "3"):
            with pytest.raises(
                InvalidParameterError, match=rf"average_out_degree .*got {bad!r}$"
            ):
                generators.directed_scale_free(50, bad)

    def test_no_self_loops(self):
        graph = generators.directed_scale_free(100, 3.0, seed=2)
        assert all(edge.source != edge.target for edge in graph.edges())

    @pytest.mark.parametrize("hub_bias", [0.0, 0.4, 0.85, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n, degree", [(40, 3.0), (120, 8.0), (6, 25.0)])
    def test_matches_per_draw_choice_reference(self, n, degree, hub_bias, seed):
        graph = generators.directed_scale_free(n, degree, seed=seed, hub_bias=hub_bias)
        reference = _reference_directed_scale_free(n, degree, seed=seed, hub_bias=hub_bias)
        for ours, theirs in zip(graph.edge_arrays(), reference.edge_arrays()):
            assert np.array_equal(ours, theirs)
        if n == 6:
            # Degree 25 on 6 vertices: the n - 1 target cap binds.
            assert graph.out_degrees().max() == n - 1


def _reference_directed_scale_free(
    n: int, average_out_degree: float, *, seed: int, hub_bias: float
) -> InfluenceGraph:
    """The per-draw ``rng.choice`` generator and edge-by-edge builder, kept verbatim.

    ``directed_scale_free`` builds one preferential CDF per source instead of
    letting ``Generator.choice`` rebuild it on every draw; this copy pins
    that the two consume the stream identically and emit the same edges.
    """
    rng = np.random.default_rng(seed)
    weights = np.ones(n, dtype=np.float64)
    edges: list[tuple[int, int]] = []
    for source in range(n):
        out_degree = int(rng.poisson(average_out_degree))
        if out_degree == 0:
            continue
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < min(out_degree, n - 1) and attempts < 20 * out_degree + 50:
            attempts += 1
            if rng.random() < hub_bias:
                target = int(rng.choice(n, p=weights / weights.sum()))
            else:
                target = int(rng.integers(n))
            if target != source and target not in chosen:
                chosen.add(target)
        for target in sorted(chosen):
            edges.append((source, target))
            weights[target] += 1.0
    builder = GraphBuilder(n, allow_duplicate_edges=True)
    for u, v in edges:
        if u != v:
            builder.add_edge(u, v)
    return builder.build()


class TestCoreWhisker:
    def test_vertex_count(self):
        graph = generators.core_whisker(50, 10, 3, seed=0)
        assert graph.num_vertices == 50 + 10 * 3

    def test_whisker_vertices_have_low_degree(self):
        graph = generators.core_whisker(50, 10, 3, core_degree=8, seed=0)
        undirected_degree = (graph.out_degrees() + graph.in_degrees()) / 2
        whisker_degrees = undirected_degree[50:]
        core_degrees = undirected_degree[:50]
        assert whisker_degrees.max() <= 2
        assert core_degrees.mean() > 4

    def test_no_whiskers(self):
        graph = generators.core_whisker(30, 0, 1, seed=0)
        assert graph.num_vertices == 30


class TestFixtures:
    def test_star_outward(self):
        graph = generators.star(4)
        assert graph.num_vertices == 5
        assert graph.out_degree(0) == 4
        assert graph.in_degree(0) == 0

    def test_star_inward(self):
        graph = generators.star(4, outward=False)
        assert graph.in_degree(0) == 4
        assert graph.out_degree(0) == 0

    def test_path(self):
        graph = generators.path(5)
        assert graph.num_edges == 4
        assert graph.out_degree(4) == 0

    def test_complete(self):
        graph = generators.complete(4)
        assert graph.num_edges == 12
        assert set(graph.out_degrees().tolist()) == {3}
