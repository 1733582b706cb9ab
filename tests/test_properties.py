"""Property-based tests (hypothesis) on core data structures and invariants.

These tests exercise randomly generated graphs, probability assignments, and
seed sets, checking the structural invariants the rest of the library relies
on: CSR consistency, estimator unbiasedness ordering, entropy bounds,
submodularity of fixed-sample estimators, and the RR-set identity.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_kernels import reachable_set_reference
from repro.diffusion.cascade import simulate_cascade
from repro.diffusion.exact import exact_spread
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import sample_rr_set
from repro.diffusion.snapshot_lanes import SnapshotLanes
from repro.diffusion.snapshots import sample_snapshot
from repro.experiments.seed_distribution import SeedSetDistribution
from repro.graphs.influence_graph import InfluenceGraph

SUPPRESSED = (HealthCheck.too_slow,)


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def random_graphs(draw, max_vertices: int = 12, max_edges: int = 30) -> InfluenceGraph:
    """Small random influence graphs with arbitrary probabilities."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = set()
    sources, targets = [], []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            sources.append(u)
            targets.append(v)
    probs = [
        draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        for _ in sources
    ]
    return InfluenceGraph(n, sources, targets, probs)


@st.composite
def graphs_with_seed_sets(draw):
    graph = draw(random_graphs())
    k = draw(st.integers(min_value=1, max_value=min(3, graph.num_vertices)))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.num_vertices - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return graph, tuple(sorted(seeds))


# --------------------------------------------------------------------------- #
# graph invariants
# --------------------------------------------------------------------------- #
class TestGraphInvariants:
    @given(random_graphs())
    @settings(max_examples=60, suppress_health_check=SUPPRESSED, deadline=None)
    def test_degree_sums_equal_edge_count(self, graph):
        assert int(graph.out_degrees().sum()) == graph.num_edges
        assert int(graph.in_degrees().sum()) == graph.num_edges

    @given(random_graphs())
    @settings(max_examples=60, suppress_health_check=SUPPRESSED, deadline=None)
    def test_transpose_swaps_degrees(self, graph):
        transposed = graph.transpose()
        assert graph.out_degrees().tolist() == transposed.in_degrees().tolist()
        assert graph.in_degrees().tolist() == transposed.out_degrees().tolist()

    @given(random_graphs())
    @settings(max_examples=60, suppress_health_check=SUPPRESSED, deadline=None)
    def test_expected_live_edges_bounds(self, graph):
        assert 0.0 <= graph.expected_live_edges <= graph.num_edges + 1e-9

    @given(random_graphs())
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_edge_iteration_consistent_with_adjacency(self, graph):
        from collections import Counter

        from_edges = Counter((e.source, e.target) for e in graph.edges())
        from_adjacency: Counter = Counter()
        for vertex in graph.vertices:
            for target in graph.out_neighbors(vertex):
                from_adjacency[(vertex, int(target))] += 1
        assert from_edges == from_adjacency


# --------------------------------------------------------------------------- #
# diffusion invariants
# --------------------------------------------------------------------------- #
class TestDiffusionInvariants:
    @given(graphs_with_seed_sets(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_cascade_contains_seeds_and_stays_in_range(self, graph_and_seeds, seed):
        graph, seeds = graph_and_seeds
        result = simulate_cascade(graph, seeds, RandomSource(seed))
        activated = set(result.activated)
        assert set(seeds) <= activated
        assert len(seeds) <= result.num_activated <= graph.num_vertices
        assert all(0 <= v < graph.num_vertices for v in activated)

    @given(graphs_with_seed_sets(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_snapshot_reachability_superset_of_seeds(self, graph_and_seeds, seed):
        graph, seeds = graph_and_seeds
        snapshot = sample_snapshot(graph, RandomSource(seed))
        reachable = reachable_set_reference(snapshot, seeds)
        assert set(seeds) <= reachable
        assert len(reachable) <= graph.num_vertices
        assert SnapshotLanes([snapshot]).reachable_count(seeds) == len(reachable)

    @given(random_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_rr_set_contains_target_and_weight_consistent(self, graph, seed):
        rr_set = sample_rr_set(graph, RandomSource(seed))
        assert rr_set.target in rr_set.vertices
        assert rr_set.size >= 1
        # The weight counts in-edges of members, so it is at least the sum of
        # in-degrees of member vertices (exactly, by construction).
        expected_weight = sum(graph.in_degree(v) for v in rr_set.vertices)
        assert rr_set.weight == expected_weight

    @given(graphs_with_seed_sets())
    @settings(max_examples=25, suppress_health_check=SUPPRESSED, deadline=None)
    def test_exact_spread_bounds(self, graph_and_seeds):
        graph, seeds = graph_and_seeds
        if graph.num_edges > 16:
            pytest.skip("exact enumeration too large")
        value = exact_spread(graph, seeds)
        assert len(seeds) - 1e-9 <= value <= graph.num_vertices + 1e-9

    @given(graphs_with_seed_sets())
    @settings(max_examples=20, suppress_health_check=SUPPRESSED, deadline=None)
    def test_exact_spread_monotone(self, graph_and_seeds):
        graph, seeds = graph_and_seeds
        if graph.num_edges > 14:
            pytest.skip("exact enumeration too large")
        value = exact_spread(graph, seeds)
        extra = next(
            (v for v in range(graph.num_vertices) if v not in seeds), None
        )
        if extra is None:
            return
        larger = exact_spread(graph, tuple(sorted(seeds + (extra,))))
        assert larger >= value - 1e-9


# --------------------------------------------------------------------------- #
# estimator invariants
# --------------------------------------------------------------------------- #
class TestEstimatorInvariants:
    @given(random_graphs(max_vertices=8, max_edges=14), st.integers(0, 1000))
    @settings(max_examples=20, suppress_health_check=SUPPRESSED, deadline=None)
    def test_snapshot_estimator_submodular_and_monotone(self, graph, seed):
        from repro.algorithms.snapshot import SnapshotEstimator

        estimator = SnapshotEstimator(8)
        estimator.build(graph, RandomSource(seed))
        vertices = list(range(graph.num_vertices))
        small = (vertices[0],)
        large = tuple(vertices[: min(3, len(vertices))])
        candidate = vertices[-1]
        if candidate in large:
            return
        # Monotonicity of the fixed-snapshot spread.
        assert estimator.spread(large) >= estimator.spread(small) - 1e-9
        # Submodularity: marginal gain w.r.t. the smaller set is at least the
        # marginal gain w.r.t. the larger superset.
        gain_small = estimator.spread(small + (candidate,)) - estimator.spread(small)
        gain_large = estimator.spread(large + (candidate,)) - estimator.spread(large)
        assert gain_small >= gain_large - 1e-9

    @given(random_graphs(max_vertices=8, max_edges=14), st.integers(0, 1000))
    @settings(max_examples=20, suppress_health_check=SUPPRESSED, deadline=None)
    def test_ris_estimates_bounded_by_n(self, graph, seed):
        from repro.algorithms.ris import RISEstimator

        estimator = RISEstimator(32)
        estimator.build(graph, RandomSource(seed))
        for vertex in range(graph.num_vertices):
            estimate = estimator.estimate((), vertex)
            assert 0.0 <= estimate <= graph.num_vertices + 1e-9


# --------------------------------------------------------------------------- #
# distribution invariants
# --------------------------------------------------------------------------- #
class TestDistributionInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=6)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_entropy_bounds(self, seed_sets):
        distribution = SeedSetDistribution.from_seed_sets(seed_sets)
        entropy = distribution.entropy()
        assert -1e-12 <= entropy <= math.log2(len(seed_sets)) + 1e-12
        assert entropy <= math.log2(max(distribution.support_size, 1)) + 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=6)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_probabilities_sum_to_one(self, seed_sets):
        distribution = SeedSetDistribution.from_seed_sets(seed_sets)
        total = sum(distribution.probability(s) for s in distribution.counts)
        assert total == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200)
    )
    @settings(max_examples=80, deadline=None)
    def test_influence_distribution_percentiles_ordered(self, values):
        from repro.experiments.distributions import InfluenceDistribution

        dist = InfluenceDistribution.from_values(values)
        assert dist.minimum <= dist.percentile_1 + 1e-9
        assert dist.percentile_1 <= dist.percentile_25 + 1e-9
        assert dist.percentile_25 <= dist.median + 1e-9
        assert dist.median <= dist.percentile_75 + 1e-9
        assert dist.percentile_75 <= dist.percentile_99 + 1e-9
        assert dist.percentile_99 <= dist.maximum + 1e-9
        assert dist.minimum <= dist.mean <= dist.maximum


# --------------------------------------------------------------------------- #
# probability-model invariants
# --------------------------------------------------------------------------- #
class TestProbabilityModelInvariants:
    @given(random_graphs())
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_iwc_incoming_mass_at_most_one(self, graph):
        from repro.graphs.probability import in_degree_weighted_cascade

        weighted = in_degree_weighted_cascade(graph)
        for vertex in weighted.vertices:
            mass = float(weighted.in_probabilities(vertex).sum())
            assert mass <= 1.0 + 1e-9

    @given(random_graphs())
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_owc_outgoing_mass_at_most_one(self, graph):
        from repro.graphs.probability import out_degree_weighted_cascade

        weighted = out_degree_weighted_cascade(graph)
        for vertex in weighted.vertices:
            mass = float(weighted.out_probabilities(vertex).sum())
            assert mass <= 1.0 + 1e-9

    @given(random_graphs(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, suppress_health_check=SUPPRESSED, deadline=None)
    def test_uniform_cascade_preserves_structure(self, graph, probability):
        from repro.graphs.probability import uniform_cascade

        assigned = uniform_cascade(graph, probability)
        assert assigned.num_edges == graph.num_edges
        assert assigned.expected_live_edges == pytest.approx(
            probability * graph.num_edges
        )
