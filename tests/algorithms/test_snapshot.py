"""Tests for the Snapshot estimator, including the graph-reduction Update."""

from __future__ import annotations

import numpy as np
import pytest

from reference_kernels import reachable_set_reference
from repro.algorithms.framework import greedy_maximize
from repro.algorithms.snapshot import SnapshotEstimator
from repro.diffusion.exact import exact_spread
from repro.diffusion.random_source import RandomSource
from repro.diffusion.snapshot_lanes import SnapshotLanes
from repro.diffusion.snapshots import sample_snapshot
from repro.exceptions import EstimatorStateError, InvalidParameterError
from repro.graphs.builder import GraphBuilder
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import erdos_renyi
from repro.graphs.probability import assign_probabilities


class TestProtocol:
    def test_estimate_before_build_raises(self):
        with pytest.raises(EstimatorStateError):
            SnapshotEstimator(2).estimate((), 0)

    def test_invalid_update_strategy(self):
        with pytest.raises(InvalidParameterError):
            SnapshotEstimator(2, update_strategy="lazy")

    def test_snapshot_count(self, karate_uc01, rng):
        estimator = SnapshotEstimator(7)
        estimator.build(karate_uc01, rng)
        assert len(estimator.snapshots) == 7

    def test_sample_size_counts_live_edges(self, karate_uc01, rng):
        estimator = SnapshotEstimator(10)
        estimator.build(karate_uc01, rng)
        live_total = sum(s.num_live_edges for s in estimator.snapshots)
        assert estimator.sample_size.edges == live_total
        assert estimator.sample_size.vertices == 0

    def test_build_does_not_count_traversal(self, karate_uc01, rng):
        estimator = SnapshotEstimator(10)
        estimator.build(karate_uc01, rng)
        assert estimator.build_cost.total == 0
        assert estimator.estimate_cost.total == 0

    def test_approach_metadata(self):
        estimator = SnapshotEstimator(2)
        assert estimator.approach == "snapshot"
        assert estimator.is_submodular is True


class TestEstimates:
    def test_deterministic_graph_exact(self, star_graph, rng):
        estimator = SnapshotEstimator(3)
        estimator.build(star_graph, rng)
        assert estimator.estimate((), 0) == pytest.approx(6.0)
        assert estimator.estimate((), 4) == pytest.approx(1.0)

    def test_unbiased_on_diamond(self, probabilistic_diamond):
        estimator = SnapshotEstimator(4000)
        estimator.build(probabilistic_diamond, RandomSource(5))
        assert estimator.estimate((), 0) == pytest.approx(
            exact_spread(probabilistic_diamond, (0,)), rel=0.05
        )

    def test_marginal_semantics_after_update(self, two_hubs_graph, rng):
        estimator = SnapshotEstimator(2)
        estimator.build(two_hubs_graph, rng)
        estimator.update(0)
        # Marginal gain of 4 on top of {0} is exactly 3 (its own component).
        assert estimator.estimate((0,), 4) == pytest.approx(3.0)
        # Marginal gain of a vertex already covered by 0 is zero.
        assert estimator.estimate((0,), 1) == pytest.approx(0.0)

    def test_spread_query(self, star_graph, rng):
        estimator = SnapshotEstimator(5)
        estimator.build(star_graph, rng)
        assert estimator.spread((0,)) == pytest.approx(6.0)
        assert estimator.spread((1, 2)) == pytest.approx(2.0)

    def test_spread_before_build_raises(self):
        with pytest.raises(EstimatorStateError):
            SnapshotEstimator(2).spread((0,))

    def test_monotone_in_seed_set(self, karate_uc01, rng):
        estimator = SnapshotEstimator(30)
        estimator.build(karate_uc01, rng)
        assert estimator.spread((0, 33)) >= estimator.spread((0,))

    def test_submodular_marginals(self, karate_uc01, rng):
        # For a fixed snapshot collection, reachability-based spread is
        # submodular: marginal gains shrink as the seed set grows.
        estimator = SnapshotEstimator(20)
        estimator.build(karate_uc01, rng)
        gain_small = estimator.spread((0, 5)) - estimator.spread((0,))
        gain_large = estimator.spread((0, 33, 5)) - estimator.spread((0, 33))
        assert gain_small >= gain_large - 1e-9


class TestUpdateStrategies:
    def test_reduce_matches_naive_estimates(self, karate_uc01):
        naive = SnapshotEstimator(15, update_strategy="naive")
        reduce_estimator = SnapshotEstimator(15, update_strategy="reduce")
        naive.build(karate_uc01, RandomSource(9))
        reduce_estimator.build(karate_uc01, RandomSource(9))
        # Same RNG seed -> identical snapshots -> identical marginal estimates.
        naive.update(0)
        reduce_estimator.update(0)
        for vertex in (1, 5, 33):
            assert naive.estimate((0,), vertex) == pytest.approx(
                reduce_estimator.estimate((0,), vertex)
            )

    def test_reduce_produces_same_greedy_solution(self, karate_uc01):
        naive_result = greedy_maximize(
            karate_uc01, 4, SnapshotEstimator(64, update_strategy="naive"), seed=3
        )
        reduce_result = greedy_maximize(
            karate_uc01, 4, SnapshotEstimator(64, update_strategy="reduce"), seed=3
        )
        assert naive_result.seed_set == reduce_result.seed_set

    def test_reduce_is_cheaper_after_first_iteration(self, karate_uc01):
        naive = greedy_maximize(
            karate_uc01, 4, SnapshotEstimator(32, update_strategy="naive"), seed=1
        )
        reduced = greedy_maximize(
            karate_uc01, 4, SnapshotEstimator(32, update_strategy="reduce"), seed=1
        )
        assert (
            reduced.cost.traversal.vertices < naive.cost.traversal.vertices
        )


class TestWithinGreedy:
    def test_finds_star_centre(self, star_graph):
        result = greedy_maximize(star_graph, 1, SnapshotEstimator(3), seed=0)
        assert result.seed_set == (0,)

    def test_two_hubs_pair(self, two_hubs_graph):
        result = greedy_maximize(two_hubs_graph, 2, SnapshotEstimator(3), seed=0)
        assert result.seed_set == (0, 4)

    def test_reasonable_karate_solution(self, karate_uc01, karate_oracle):
        result = greedy_maximize(karate_uc01, 1, SnapshotEstimator(128), seed=2)
        best = karate_oracle.top_vertices(1)[0][1]
        assert karate_oracle.spread(result.seed_set) >= 0.8 * best


class PerSnapshotReference(SnapshotEstimator):
    """The per-snapshot loop: one scalar BFS per stored snapshot and query.

    Builds (samples) exactly like :class:`SnapshotEstimator`, then answers
    Estimate, Update and spread from ``self.snapshots`` one snapshot at a
    time, with a cached base count (naive) or a blocked mask per snapshot
    (reduce), charging the same cost counter.
    """

    def build(self, graph, rng):
        super().build(graph, rng)
        self._reference_seeds = ()
        self._reference_base = 0
        self._reference_blocked = [
            np.zeros(graph.num_vertices, dtype=bool) for _ in self.snapshots
        ]

    def _count(self, seeds, blocked=None):
        blocked = blocked or [None] * len(self.snapshots)
        return sum(
            len(reachable_set_reference(snapshot, seeds, cost=self.estimate_cost, blocked=mask))
            for snapshot, mask in zip(self.snapshots, blocked)
        )

    def estimate(self, current_seeds, vertex):
        if self.update_strategy == "reduce":
            return self._count((vertex,), self._reference_blocked) / len(self.snapshots)
        count = self._count(tuple(current_seeds) + (vertex,))
        return (count - self._reference_base) / len(self.snapshots)

    def update(self, chosen_vertex):
        self._reference_seeds += (chosen_vertex,)
        if self.update_strategy == "reduce":
            for snapshot, mask in zip(self.snapshots, self._reference_blocked):
                reached = reachable_set_reference(
                    snapshot, (chosen_vertex,), cost=self.estimate_cost, blocked=mask
                )
                mask[list(reached)] = True
        else:
            self._reference_base = self._count(self._reference_seeds)

    def spread(self, seed_set):
        return self._count(seed_set) / len(self.snapshots)


def _karate_multigraph(probability):
    """Karate with every third arc doubled and every seventh tripled."""
    sources, targets, _ = load_dataset("karate").edge_arrays()
    builder = GraphBuilder(34, on_duplicate="allow")
    for index, (source, target) in enumerate(zip(sources.tolist(), targets.tolist())):
        copies = 1 + (index % 3 == 0) + (index % 7 == 0)
        for _ in range(copies):
            builder.add_edge(source, target)
    return assign_probabilities(builder.build(name="karate_multi"), probability)


#: Graph factory per parity instance and model.  The generated graph's
#: frontiers are large enough to reach the batched levels.
PARITY_GRAPHS = {
    "karate": {
        "ic": lambda: assign_probabilities(load_dataset("karate"), "uc0.1"),
        "lt": lambda: assign_probabilities(load_dataset("karate"), "iwc"),
    },
    "karate_multigraph": {
        "ic": lambda: _karate_multigraph("iwc"),
        "lt": lambda: _karate_multigraph("iwc"),
    },
    "er200": {
        "ic": lambda: assign_probabilities(erdos_renyi(200, 0.04, seed=1), "iwc"),
        "lt": lambda: assign_probabilities(erdos_renyi(200, 0.04, seed=1), "iwc"),
    },
}

#: One group, one short of a full word, exactly one word, one lane over, and
#: three groups with a two-lane tail.
PARITY_TAUS = (1, 63, 64, 65, 130)

#: Candidate pool on the generated graph, which keeps the per-snapshot loop fast.
ER200_CANDIDATES = tuple(range(0, 200, 16))


def _greedy_pair(graph, model, tau, strategy):
    candidates = None if graph.num_vertices <= 34 else ER200_CANDIDATES
    results = []
    for estimator_type in (SnapshotEstimator, PerSnapshotReference):
        estimator = estimator_type(tau, update_strategy=strategy, model=model)
        result = greedy_maximize(graph, 3, estimator, seed=tau, candidate_vertices=candidates)
        results.append((result, estimator))
    return results


class TestLaneParity:
    """Lane-packed queries equal the per-snapshot loop exactly."""

    @pytest.mark.parametrize("tau", PARITY_TAUS)
    @pytest.mark.parametrize("strategy", ["naive", "reduce"])
    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("graph_name", sorted(PARITY_GRAPHS))
    def test_greedy_matches_per_snapshot_loop(self, graph_name, model, strategy, tau):
        graph = PARITY_GRAPHS[graph_name][model]()
        (lanes, lane_estimator), (reference, reference_estimator) = _greedy_pair(
            graph, model, tau, strategy
        )
        assert lanes.seeds == reference.seeds
        assert lanes.estimates == reference.estimates
        assert lanes.cost.traversal == reference.cost.traversal
        assert lane_estimator.estimate_cost == reference_estimator.estimate_cost
        assert lanes.cost.sample_size == reference.cost.sample_size
        seeds = lanes.seeds
        assert lane_estimator.spread(seeds) == reference_estimator.spread(seeds)
        assert lane_estimator.estimate_cost == reference_estimator.estimate_cost

    @pytest.mark.parametrize("tau", [1, 64, 65])
    def test_lanes_on_deterministic_graph(self, two_hubs_graph, tau):
        estimator = SnapshotEstimator(tau)
        estimator.build(two_hubs_graph, RandomSource(0))
        lanes = SnapshotLanes(estimator.snapshots)
        assert lanes.reachable_count((0,)) == 4 * tau
        assert lanes.reachable_count((0, 4)) == 7 * tau
        assert lanes.block_reachable((0,)) == 4 * tau
        assert lanes.reachable_count((1,), blocked=True) == 0
        assert lanes.reachable_count((4,), blocked=True) == 3 * tau
        assert lanes.reachable_count((1,)) == tau

    def test_lanes_need_snapshots_of_one_graph(self, karate_uc01, star_graph):
        with pytest.raises(InvalidParameterError, match="one or more snapshots"):
            SnapshotLanes([])
        mixed = [sample_snapshot(graph, RandomSource(0)) for graph in (karate_uc01, star_graph)]
        with pytest.raises(InvalidParameterError, match=r"\[6, 34\]"):
            SnapshotLanes(mixed)

    def test_snapshots_without_live_edges(self):
        builder = GraphBuilder(5, default_probability=1e-12)
        for source, target in ((0, 1), (1, 2), (2, 3), (3, 4)):
            builder.add_edge(source, target)
        estimator = SnapshotEstimator(70)
        estimator.build(builder.build(name="dead_path"), RandomSource(0))
        assert estimator.sample_size.edges == 0
        assert estimator.estimate((), 0) == 1.0
        assert estimator.spread((0, 2, 4)) == 3.0
        assert estimator.estimate_cost.edges == 0

    def test_multigraph_has_parallel_live_copies(self):
        # Non-vacuity: some snapshot keeps two copies of one arc, which the
        # union CSR must count as two live edges.
        estimator = SnapshotEstimator(130, model="ic")
        estimator.build(_karate_multigraph("iwc"), RandomSource(0))
        repeated = 0
        for snapshot in estimator.snapshots:
            for vertex in range(snapshot.num_vertices):
                row = snapshot.targets[snapshot.indptr[vertex] : snapshot.indptr[vertex + 1]]
                repeated += row.shape[0] - np.unique(row).shape[0]
        assert repeated > 0

    @pytest.mark.parametrize("strategy", ["naive", "reduce"])
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_generated_graph_reaches_batched_levels(self, model, strategy, monkeypatch):
        calls = []
        batched = SnapshotLanes._batched_levels

        def spy(self, *args):
            calls.append(1)
            return batched(self, *args)

        monkeypatch.setattr(SnapshotLanes, "_batched_levels", spy)
        greedy_maximize(
            PARITY_GRAPHS["er200"][model](),
            3,
            SnapshotEstimator(130, update_strategy=strategy, model=model),
            seed=130,
            candidate_vertices=ER200_CANDIDATES,
        )
        assert calls


class TestNaiveWalksMarginalReach:
    """Naive walks what "reduce" walks and still charges the whole BFS."""

    def test_naive_performs_reduce_work_and_charges_reference(self, monkeypatch):
        graph = PARITY_GRAPHS["er200"]["ic"]()
        performed = []
        bfs = SnapshotLanes._bfs

        def counting_bfs(self, *args):
            reached = bfs(self, *args)
            performed[-1] += reached
            return reached

        monkeypatch.setattr(SnapshotLanes, "_bfs", counting_bfs)
        estimators = {}
        for strategy in ("naive", "reduce"):
            performed.append(0)
            estimators[strategy] = SnapshotEstimator(65, update_strategy=strategy)
            greedy_maximize(
                graph, 4, estimators[strategy], seed=65, candidate_vertices=ER200_CANDIDATES
            )
        monkeypatch.setattr(SnapshotLanes, "_bfs", bfs)
        reference = PerSnapshotReference(65, update_strategy="naive")
        greedy_maximize(graph, 4, reference, seed=65, candidate_vertices=ER200_CANDIDATES)
        naive_work, reduce_work = performed
        # Non-vacuity: reach(S) is large, so re-walking it would show.
        assert estimators["naive"].estimate_cost.vertices > 2 * reduce_work
        assert naive_work == reduce_work
        assert estimators["naive"].estimate_cost == reference.estimate_cost

    @pytest.mark.parametrize("current_seeds", [(5,), ()])
    def test_mismatched_seeds_run_the_full_bfs(self, karate_uc01, current_seeds):
        lanes_estimator = SnapshotEstimator(70)
        reference = PerSnapshotReference(70)
        for estimator in (lanes_estimator, reference):
            estimator.build(karate_uc01, RandomSource(4))
            estimator.update(0)
        fresh = SnapshotLanes(lanes_estimator.snapshots)
        base = fresh.reachable_count((0,))
        for vertex in (1, 2, 33):
            before = lanes_estimator.estimate_cost.snapshot()
            value = lanes_estimator.estimate(current_seeds, vertex)
            assert value == (fresh.reachable_count(current_seeds + (vertex,)) - base) / 70
            assert value == reference.estimate(current_seeds, vertex)
            assert lanes_estimator.estimate_cost == reference.estimate_cost
            assert lanes_estimator.estimate_cost.total > before.total
