"""Tests for live-edge snapshot sampling and reachability."""

from __future__ import annotations

import numpy as np
import pytest

from reference_kernels import reachable_set_reference
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.random_source import RandomSource
from repro.diffusion.snapshot_lanes import SnapshotLanes
from repro.diffusion.snapshots import sample_snapshot, sample_snapshots
from repro.graphs.builder import GraphBuilder
from repro.graphs.probability import uniform_cascade


class TestSampleSnapshot:
    def test_deterministic_graph_keeps_all_edges(self, star_graph, rng):
        snapshot = sample_snapshot(star_graph, rng)
        assert snapshot.num_live_edges == star_graph.num_edges

    def test_low_probability_keeps_few_edges(self, karate_uc01):
        counts = [
            sample_snapshot(karate_uc01, RandomSource(seed)).num_live_edges
            for seed in range(30)
        ]
        # Expected number of live edges is m~ = 15.6.
        assert 5 <= float(np.mean(counts)) <= 30

    def test_sample_size_accounting(self, karate_uc01):
        size = SampleSize()
        snapshot = sample_snapshot(karate_uc01, RandomSource(0), sample_size=size)
        assert size.edges == snapshot.num_live_edges
        assert size.vertices == 0

    def test_live_edges_subset_of_original(self, karate_uc01):
        snapshot = sample_snapshot(karate_uc01, RandomSource(1))
        original = {(e.source, e.target) for e in karate_uc01.edges()}
        sources = np.repeat(np.arange(snapshot.num_vertices), np.diff(snapshot.indptr))
        for source, target in zip(sources.tolist(), snapshot.targets.tolist()):
            assert (source, target) in original

    def test_sample_snapshots_count(self, karate_uc01):
        snapshots = sample_snapshots(karate_uc01, 5, RandomSource(2))
        assert len(snapshots) == 5

    def test_expected_live_edge_count_matches_m_tilde(self, karate_uc01):
        size = SampleSize()
        sample_snapshots(karate_uc01, 200, RandomSource(3), sample_size=size)
        mean_live = size.edges / 200
        assert mean_live == pytest.approx(karate_uc01.expected_live_edges, rel=0.15)


class TestReachability:
    """Live-edge reachability: the lane query and the per-vertex reference BFS."""

    def test_reachable_set_on_deterministic_star(self, star_graph, rng):
        snapshot = sample_snapshot(star_graph, rng)
        assert reachable_set_reference(snapshot, (0,)) == set(range(6))
        assert reachable_set_reference(snapshot, (2,)) == {2}

    def test_reachable_count(self, path_graph, rng):
        lanes = SnapshotLanes([sample_snapshot(path_graph, rng)])
        assert lanes.reachable_count((0,)) == 4
        assert lanes.reachable_count((3,)) == 1

    def test_multiple_seeds_union(self, two_hubs_graph, rng):
        lanes = SnapshotLanes([sample_snapshot(two_hubs_graph, rng)])
        assert lanes.reachable_count((0, 4)) == 7

    def test_blocked_vertices_excluded(self, star_graph, rng):
        snapshot = sample_snapshot(star_graph, rng)
        blocked = np.zeros(6, dtype=bool)
        blocked[[1, 2]] = True
        assert reachable_set_reference(snapshot, (0,), blocked=blocked) == {0, 3, 4, 5}

    def test_blocked_seed_returns_empty(self, star_graph, rng):
        snapshot = sample_snapshot(star_graph, rng)
        blocked = np.zeros(6, dtype=bool)
        blocked[0] = True
        assert reachable_set_reference(snapshot, (0,), blocked=blocked) == set()

    def test_cost_accounting(self, star_graph, rng):
        snapshot = sample_snapshot(star_graph, rng)
        reference_cost, lane_cost = TraversalCost(), TraversalCost()
        reachable_set_reference(snapshot, (0,), cost=reference_cost)
        SnapshotLanes([snapshot]).reachable_count((0,), cost=lane_cost)
        assert (lane_cost.vertices, lane_cost.edges) == (6, 5)
        assert lane_cost == reference_cost

    def test_snapshot_reachability_only_counts_live_edges(self):
        builder = GraphBuilder(3, default_probability=1.0)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        graph = uniform_cascade(builder.build(), 0.0001)
        # With tiny probabilities the snapshot is almost surely empty.
        snapshot = sample_snapshot(graph, RandomSource(0))
        cost = TraversalCost()
        assert SnapshotLanes([snapshot]).reachable_count((0,), cost=cost) == 1
        assert cost.edges == snapshot.num_live_edges == 0
