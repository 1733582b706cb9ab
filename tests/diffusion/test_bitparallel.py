"""Tests for the bit-parallel cascade engine (64 worlds per machine word).

Five layers of protection:

* **Primitive correctness** — both popcount implementations (the
  ``np.bitwise_count`` fast path and the 16-bit lookup fallback) agree on
  arbitrary words; ``pack_lanes``/``unpack_lanes`` round-trip (hypothesis).
* **Exact equality** — on deterministic graphs (every probability 1.0) the
  mask kernels must reproduce the scalar BFS exactly: activated sets,
  RR memberships/weights, and traversal-cost totals, for every lane.
* **Statistical equivalence** — the bit-parallel draw-order contract is
  *different* from the scalar stream, so on probabilistic graphs we check
  distribution, not bytes: the bit-parallel Monte Carlo mean must fall
  inside a generous confidence interval of the scalar estimate.
* **Lazy RR kernel** — each word's exact stream consumption (targets, then
  IC one double per examined edge, LT one per activation with in-degree
  > 0) against a twin generator, and the per-world cost, weight and
  sample-size accounting.
* **Seam behaviour** — ``batch_mode`` resolution (explicit, else scalar;
  the environment is never consulted), the split-stream jobs contract (any
  worker count bit-identical), and spec/context validation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import bitparallel as bp
from repro.diffusion.cascade import simulate_cascades, simulate_spread
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.frontier import frontier_edges
from repro.diffusion.models import INDEPENDENT_CASCADE, LINEAR_THRESHOLD
from repro.diffusion.reverse import sample_rr_sets
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.exceptions import InvalidParameterError, ReproError, SpecValidationError
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import directed_scale_free
from repro.graphs.influence_graph import InfluenceGraph
from repro.graphs.probability import assign_probabilities


@pytest.fixture(scope="module")
def karate():
    return load_dataset("karate")


@pytest.fixture(scope="module")
def karate_certain(karate):
    return assign_probabilities(karate, "uc1.0")


@pytest.fixture(scope="module")
def karate_iwc(karate):
    return assign_probabilities(karate, "iwc")


@pytest.fixture(scope="module")
def scale_free_iwc():
    # Heavy-tailed in-degrees, and 66 of the 400 vertices have none.
    return assign_probabilities(directed_scale_free(400, 3.0, seed=3), "iwc")


# --------------------------------------------------------------------------- #
# popcount portability
# --------------------------------------------------------------------------- #
class TestPopcount:
    def test_paths_agree_on_random_words(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=1023, dtype=np.uint64)
        lut = bp._popcount_lookup(words)
        fast = bp._popcount_bitwise_count(words)
        assert lut.dtype == fast.dtype == np.int64
        np.testing.assert_array_equal(lut, fast)

    def test_paths_agree_on_edge_words(self):
        words = np.array(
            [0, 1, 2**63, 2**64 - 1, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(
            bp._popcount_lookup(words), [0, 1, 1, 64, 32, 32]
        )
        np.testing.assert_array_equal(
            bp._popcount_bitwise_count(words), [0, 1, 1, 64, 32, 32]
        )

    def test_lookup_preserves_shape(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**64, size=(7, 5), dtype=np.uint64)
        out = bp._popcount_lookup(words)
        assert out.shape == (7, 5)
        np.testing.assert_array_equal(out, bp._popcount_bitwise_count(words))

    def test_public_popcount_matches_python_bit_count(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**64, size=100, dtype=np.uint64)
        expected = [int(w).bit_count() for w in words]
        np.testing.assert_array_equal(bp.popcount(words), expected)


# --------------------------------------------------------------------------- #
# lane packing round-trips (hypothesis)
# --------------------------------------------------------------------------- #
class TestPackUnpack:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed, num_lanes, num_columns):
        rng = np.random.default_rng(seed)
        matrix = rng.random((num_lanes, num_columns)) < 0.5
        words = bp.pack_lanes(matrix)
        assert words.dtype == np.uint64
        assert words.shape == (num_columns,)
        np.testing.assert_array_equal(bp.unpack_lanes(words, num_lanes), matrix)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_lane_counts_match_unpacked_sums(self, seed, num_lanes):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size=17, dtype=np.uint64)
        words &= bp.lanes_mask(num_lanes)
        counts = bp.lane_counts(words, num_lanes)
        np.testing.assert_array_equal(
            counts, bp.unpack_lanes(words, num_lanes).sum(axis=1)
        )

    def test_word_spans_cover_count_exactly(self):
        assert bp.word_spans(1) == [(0, 1)]
        assert bp.word_spans(64) == [(0, 64)]
        assert bp.word_spans(65) == [(0, 64), (64, 1)]
        assert bp.word_spans(200) == [(0, 64), (64, 64), (128, 64), (192, 8)]
        assert sum(lanes for _, lanes in bp.word_spans(1000)) == 1000


# --------------------------------------------------------------------------- #
# batch-mode resolution
# --------------------------------------------------------------------------- #
class TestBatchModeResolution:
    def test_explicit_values(self):
        assert bp.require_batch_mode("scalar") == "scalar"
        assert bp.require_batch_mode("bitparallel") == "bitparallel"
        with pytest.raises(InvalidParameterError):
            bp.require_batch_mode("vectorized")

    def test_default_is_scalar(self):
        assert bp.resolve_batch_mode(None) == "scalar"


class TestEnvironmentIgnored:
    """A ``REPRO_BITPARALLEL`` variable in the environment changes no result.

    Each case runs the same call with the variable unset and set to ``1``;
    only an explicit ``batch_mode`` may select the bit-parallel engine.
    """

    ENV = "REPRO_BITPARALLEL"

    @pytest.fixture(scope="class")
    def karate_uc(self, karate):
        return assign_probabilities(karate, "uc0.1")

    def _assert_env_ignored(self, monkeypatch, call):
        monkeypatch.delenv(self.ENV, raising=False)
        plain = call()
        monkeypatch.setenv(self.ENV, "1")
        assert call() == plain

    @staticmethod
    def _mode(batch_mode):
        return {} if batch_mode is None else {"batch_mode": batch_mode}

    @pytest.mark.parametrize("batch_mode", [None, "scalar"])
    @pytest.mark.parametrize("model", [INDEPENDENT_CASCADE, LINEAR_THRESHOLD])
    def test_model_simulate_spread(self, monkeypatch, karate_uc, karate_iwc, model, batch_mode):
        graph = karate_uc if model is INDEPENDENT_CASCADE else karate_iwc
        self._assert_env_ignored(monkeypatch, lambda: model.simulate_spread(
            graph, (0, 33), 70, np.random.default_rng(1), **self._mode(batch_mode)
        ))

    @pytest.mark.parametrize("batch_mode", [None, "scalar"])
    @pytest.mark.parametrize("model", [INDEPENDENT_CASCADE, LINEAR_THRESHOLD])
    def test_model_simulate_cascades(self, monkeypatch, karate_uc, karate_iwc, model, batch_mode):
        graph = karate_uc if model is INDEPENDENT_CASCADE else karate_iwc
        self._assert_env_ignored(monkeypatch, lambda: model.simulate_cascades(
            graph, (0, 33), 70, np.random.default_rng(1), **self._mode(batch_mode)
        ))

    @pytest.mark.parametrize("batch_mode", [None, "scalar"])
    def test_public_samplers(self, monkeypatch, karate_uc, batch_mode):
        import repro

        mode = self._mode(batch_mode)
        self._assert_env_ignored(monkeypatch, lambda: repro.simulate_spread(
            karate_uc, (0, 33), 70, np.random.default_rng(1), **mode
        ))
        self._assert_env_ignored(monkeypatch, lambda: repro.simulate_cascades(
            karate_uc, (0, 33), 70, np.random.default_rng(1), **mode
        ))
        self._assert_env_ignored(monkeypatch, lambda: repro.sample_rr_sets(
            karate_uc, 150, np.random.default_rng(2), **mode
        ))

    @pytest.mark.parametrize("batch_mode", [None, "scalar"])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_monte_carlo_spread(self, monkeypatch, karate_uc, jobs, batch_mode):
        self._assert_env_ignored(monkeypatch, lambda: monte_carlo_spread(
            karate_uc, (0, 33), 130, seed=3, jobs=jobs, **self._mode(batch_mode)
        ))

    def test_rr_pool_oracle(self, monkeypatch, karate_uc):
        from repro.estimation.oracle import RRPoolOracle

        self._assert_env_ignored(monkeypatch, lambda: RRPoolOracle(
            karate_uc, 500, seed=4
        ).single_vertex_spreads().tolist())

    @pytest.mark.parametrize("approach", ["oneshot", "ris"])
    def test_greedy_maximize(self, monkeypatch, karate_uc, approach):
        from repro.algorithms import OneshotEstimator, RISEstimator, greedy_maximize

        estimator_type = OneshotEstimator if approach == "oneshot" else RISEstimator

        def run():
            result = greedy_maximize(karate_uc, 2, estimator_type(64), seed=0)
            return result.seeds, result.estimates

        self._assert_env_ignored(monkeypatch, run)


# --------------------------------------------------------------------------- #
# exact equality on deterministic graphs
# --------------------------------------------------------------------------- #
class TestDeterministicEquality:
    def test_forward_matches_scalar_on_certain_karate(self, karate_certain):
        for seeds in [(0,), (33,), (0, 16)]:
            scalar = simulate_cascades(
                karate_certain, seeds, 5, np.random.default_rng(1), batch_mode="scalar"
            )
            masks = simulate_cascades(
                karate_certain, seeds, 5, np.random.default_rng(1),
                batch_mode="bitparallel",
            )
            for got, want in zip(masks, scalar):
                assert set(got.activated) == set(want.activated)
                assert got.num_activated == want.num_activated

    def test_forward_costs_match_scalar_on_certain_karate(self, karate_certain):
        cost_scalar, cost_masks = TraversalCost(), TraversalCost()
        simulate_cascades(
            karate_certain, (0,), 130, np.random.default_rng(2),
            cost=cost_scalar, batch_mode="scalar",
        )
        simulate_cascades(
            karate_certain, (0,), 130, np.random.default_rng(2),
            cost=cost_masks, batch_mode="bitparallel",
        )
        assert (cost_masks.vertices, cost_masks.edges) == (
            cost_scalar.vertices, cost_scalar.edges,
        )

    def test_rr_sets_match_scalar_on_certain_karate(self, karate_certain):
        cost_scalar, cost_masks = TraversalCost(), TraversalCost()
        size_scalar, size_masks = SampleSize(), SampleSize()
        scalar = sample_rr_sets(
            karate_certain, 100, np.random.default_rng(3),
            cost=cost_scalar, sample_size=size_scalar, batch_mode="scalar",
        )
        masks = sample_rr_sets(
            karate_certain, 100, np.random.default_rng(3),
            cost=cost_masks, sample_size=size_masks, batch_mode="bitparallel",
        )
        # The graph is strongly connected with p=1, so every RR set contains
        # all vertices and weighs the full edge count, whatever the target.
        for collection in (scalar, masks):
            for rr_set in collection:
                assert rr_set.size == karate_certain.num_vertices
                assert rr_set.weight == karate_certain.num_edges
        assert (cost_masks.vertices, cost_masks.edges) == (
            cost_scalar.vertices, cost_scalar.edges,
        )
        assert size_masks.vertices == size_scalar.vertices

    def test_line_graph_partial_reachability(self):
        # 0 -> 1 -> 2 -> 3 with certainty: RR set of target t is {0..t},
        # forward cascade from s reaches {s..3}.
        graph = InfluenceGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        results = simulate_cascades(
            graph, (1,), 70, np.random.default_rng(4), batch_mode="bitparallel"
        )
        assert len(results) == 70
        for result in results:
            assert set(result.activated) == {1, 2, 3}
        rr_sets = sample_rr_sets(
            graph, 128, np.random.default_rng(5), batch_mode="bitparallel"
        )
        for rr_set in rr_sets:
            assert set(rr_set.vertices) == set(range(rr_set.target + 1))
            assert rr_set.weight == rr_set.target  # in-degree sum of members

    def test_empty_graph_rejected_for_rr_sets(self):
        graph = InfluenceGraph(0, [], [], [])
        with pytest.raises(ValueError):
            sample_rr_sets(
                graph, 4, np.random.default_rng(0), batch_mode="bitparallel"
            )

    @pytest.mark.parametrize("batch_mode", ["scalar", "bitparallel"])
    @pytest.mark.parametrize("model", [INDEPENDENT_CASCADE, LINEAR_THRESHOLD])
    def test_empty_graph_rr_error_is_a_repro_error(self, model, batch_mode):
        graph = InfluenceGraph(0, [], [], [])
        with pytest.raises(ReproError, match="empty graph"):
            model.sample_rr_sets(
                graph, 4, np.random.default_rng(0), batch_mode=batch_mode
            )

    def test_edgeless_graph_activates_only_seeds(self):
        isolated = InfluenceGraph(6, [], [], [])
        spread = simulate_spread(
            isolated, (0, 5), 80, np.random.default_rng(6), batch_mode="bitparallel"
        )
        assert spread == 2.0


# --------------------------------------------------------------------------- #
# statistical equivalence on probabilistic graphs
# --------------------------------------------------------------------------- #
class TestStatisticalEquivalence:
    def test_ic_monte_carlo_mean_within_scalar_ci(self, karate):
        scalar = monte_carlo_spread(
            karate, (0, 33), 4000, seed=7, batch_mode="scalar"
        )
        masks = monte_carlo_spread(
            karate, (0, 33), 4000, seed=7, batch_mode="bitparallel"
        )
        # Independent draws of the same distribution: the two means differ
        # by a mean-zero variable with stderr ~ sqrt(2) * sem.  z=4 keeps
        # the false-failure rate ~ 1e-4 while still catching biased kernels.
        tolerance = 4.0 * math.sqrt(2.0) * scalar.standard_error
        assert masks.mean == pytest.approx(scalar.mean, abs=tolerance)
        assert masks.num_simulations == scalar.num_simulations == 4000

    def test_lt_spread_mean_within_scalar_ci(self, karate_iwc):
        scalar = monte_carlo_spread(
            karate_iwc, (0,), 4000, seed=8, model="lt", batch_mode="scalar"
        )
        masks = monte_carlo_spread(
            karate_iwc, (0,), 4000, seed=8, model="lt", batch_mode="bitparallel"
        )
        tolerance = 4.0 * math.sqrt(2.0) * scalar.standard_error
        assert masks.mean == pytest.approx(scalar.mean, abs=tolerance)

    def test_ic_rr_size_mean_close_to_scalar(self, karate):
        scalar = INDEPENDENT_CASCADE.sample_rr_sets(
            karate, 4000, np.random.default_rng(9), batch_mode="scalar"
        )
        masks = INDEPENDENT_CASCADE.sample_rr_sets(
            karate, 4000, np.random.default_rng(9), batch_mode="bitparallel"
        )
        mean_scalar = sum(s.size for s in scalar) / len(scalar)
        mean_masks = sum(s.size for s in masks) / len(masks)
        assert mean_masks == pytest.approx(mean_scalar, rel=0.15)

    def test_lt_rr_size_mean_close_to_scalar(self, karate_iwc):
        scalar = LINEAR_THRESHOLD.sample_rr_sets(
            karate_iwc, 4000, np.random.default_rng(10), batch_mode="scalar"
        )
        masks = LINEAR_THRESHOLD.sample_rr_sets(
            karate_iwc, 4000, np.random.default_rng(10), batch_mode="bitparallel"
        )
        mean_scalar = sum(s.size for s in scalar) / len(scalar)
        mean_masks = sum(s.size for s in masks) / len(masks)
        assert mean_masks == pytest.approx(mean_scalar, rel=0.15)

    def test_lt_at_most_one_live_in_edge_per_world(self, karate_iwc):
        # The LT live-edge distribution keeps at most one in-edge per vertex
        # per world.  Reverse: the lazy hook, asked about every vertex in 64
        # lanes at once, keeps at most one edge of each (vertex, lane) row.
        in_indptr, _, _ = karate_iwc.in_csr
        pairs = np.repeat(np.arange(karate_iwc.num_vertices), 64)
        edges, degrees, _ = frontier_edges(in_indptr, pairs)
        live = LINEAR_THRESHOLD.live_in_edges(
            karate_iwc, edges, degrees, np.random.default_rng(11)
        )
        kept = np.add.reduceat(live.astype(np.int64), np.cumsum(degrees) - degrees)
        assert kept.max() == 1  # at most one, and the hook is not vacuous
        # Forward: group the forward-CSR words by their target vertex.
        forward_words = bp.lt_live_words(karate_iwc, 64, np.random.default_rng(11))
        _, out_targets, _ = karate_iwc.out_csr
        forward_groups = [
            forward_words[out_targets == v]
            for v in range(karate_iwc.num_vertices)
        ]
        for segment in forward_groups:
            for i in range(segment.size):
                for j in range(i + 1, segment.size):
                    assert int(segment[i] & segment[j]) == 0


# --------------------------------------------------------------------------- #
# draw-order contract: reproducibility and the jobs split-stream
# --------------------------------------------------------------------------- #
class TestDrawOrderContract:
    def test_same_seed_reproduces(self, karate):
        first = monte_carlo_spread(karate, (0,), 300, seed=12, batch_mode="bitparallel")
        second = monte_carlo_spread(karate, (0,), 300, seed=12, batch_mode="bitparallel")
        assert first == second

    @pytest.mark.parametrize(
        ("model", "graph_fixture"),
        [(INDEPENDENT_CASCADE, "karate_uc01"), (LINEAR_THRESHOLD, "karate_iwc")],
    )
    def test_monte_carlo_jobs_invariance(self, request, model, graph_fixture):
        graph = request.getfixturevalue(graph_fixture)
        serial = monte_carlo_spread(
            graph, (0, 33), 300, seed=13, model=model, jobs=1, batch_mode="bitparallel"
        )
        parallel = monte_carlo_spread(
            graph, (0, 33), 300, seed=13, model=model, jobs=4, batch_mode="bitparallel"
        )
        assert serial == parallel

    @pytest.mark.parametrize(
        ("model", "graph_fixture"),
        [(INDEPENDENT_CASCADE, "karate_uc01"), (LINEAR_THRESHOLD, "karate_iwc")],
    )
    def test_rr_pool_jobs_invariance(self, request, model, graph_fixture):
        graph = request.getfixturevalue(graph_fixture)
        pools = [
            model.sample_rr_sets(graph, 200, 14, jobs=jobs, batch_mode="bitparallel")
            for jobs in (1, 2, 4)
        ]
        reference = [(s.target, s.vertices, s.weight) for s in pools[0]]
        for pool in pools[1:]:
            assert [(s.target, s.vertices, s.weight) for s in pool] == reference

    def test_partial_last_word_lane_count(self, karate):
        # 70 simulations = one full word + one 6-lane word; the mean must
        # average exactly 70 worlds, not 128.
        estimate = monte_carlo_spread(
            karate, (0,), 70, seed=15, batch_mode="bitparallel"
        )
        assert estimate.num_simulations == 70
        total = estimate.mean * 70
        assert total == pytest.approx(round(total))
        assert 1.0 <= estimate.mean <= karate.num_vertices


# --------------------------------------------------------------------------- #
# lazy RR kernel: draw order and per-world accounting
# --------------------------------------------------------------------------- #
#: (model, graph fixture) pairs for the lazy RR-kernel tests: karate and a
#: generated scale-free graph, each under a probability setting valid for
#: the model.
LAZY_RR_CASES = [
    (INDEPENDENT_CASCADE, "karate_uc01"),
    (INDEPENDENT_CASCADE, "scale_free_iwc"),
    (LINEAR_THRESHOLD, "karate_iwc"),
    (LINEAR_THRESHOLD, "scale_free_iwc"),
]


class TestLazyRRKernel:
    @pytest.mark.parametrize("count", [64, 37])
    @pytest.mark.parametrize(("model", "graph_fixture"), LAZY_RR_CASES)
    def test_word_draw_order(self, request, model, graph_fixture, count):
        # One word (full or partial): its targets, then IC one double per
        # examined (edge, world) pair, LT one per (vertex, world) activation
        # with in-degree > 0 -- and nothing else.
        graph = request.getfixturevalue(graph_fixture)
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        cost = TraversalCost()
        rr_sets = model.sample_rr_sets(
            graph, count, rng, cost=cost, batch_mode="bitparallel"
        )
        targets = twin.integers(graph.num_vertices, size=count)
        assert [rr_set.target for rr_set in rr_sets] == targets.tolist()
        if model is INDEPENDENT_CASCADE:
            doubles = cost.edges
        else:
            in_degrees = graph.in_degrees()
            doubles = sum(
                int(in_degrees[vertex] > 0)
                for rr_set in rr_sets
                for vertex in rr_set.vertices
            )
        assert doubles > count
        twin.random(doubles)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize(("model", "graph_fixture"), LAZY_RR_CASES)
    def test_per_world_accounting(self, request, model, graph_fixture):
        graph = request.getfixturevalue(graph_fixture)
        cost, sample_size = TraversalCost(), SampleSize()
        rr_sets = model.sample_rr_sets(
            graph, 200, np.random.default_rng(22),
            cost=cost, sample_size=sample_size, batch_mode="bitparallel",
        )
        sizes = sum(rr_set.size for rr_set in rr_sets)
        weights = sum(rr_set.weight for rr_set in rr_sets)
        assert cost.vertices == sizes
        assert cost.edges == weights
        assert sample_size.vertices == sizes
        # Per world: the weight is the in-degree sum of the set's members.
        in_degrees = graph.in_degrees()
        for rr_set in rr_sets:
            assert rr_set.target in rr_set.vertices
            assert rr_set.weight == int(in_degrees[list(rr_set.vertices)].sum())

    @pytest.mark.parametrize("model", [INDEPENDENT_CASCADE, LINEAR_THRESHOLD])
    def test_size_and_weight_means_within_scalar_ci(self, scale_free_iwc, model):
        samples = {
            mode: model.sample_rr_sets(
                scale_free_iwc, 4000, np.random.default_rng(23), batch_mode=mode
            )
            for mode in ("scalar", "bitparallel")
        }
        for field in ("size", "weight"):
            scalar = np.array([getattr(s, field) for s in samples["scalar"]])
            masks = np.array([getattr(s, field) for s in samples["bitparallel"]])
            # Heavy-tailed (std above the mean), so the band is z=4 on the
            # difference of two independent means, as for Monte Carlo above.
            tolerance = 4.0 * math.sqrt(2.0 / scalar.size) * scalar.std()
            assert masks.mean() == pytest.approx(scalar.mean(), abs=tolerance)


# --------------------------------------------------------------------------- #
# seam validation: specs, context, factories
# --------------------------------------------------------------------------- #
class TestSeams:
    def test_run_context_validates_batch_mode(self):
        from repro.context import RunContext

        with pytest.raises(SpecValidationError):
            RunContext(batch_mode="simd")
        assert RunContext(batch_mode="bitparallel").batch_mode == "bitparallel"

    def test_run_context_round_trips_batch_mode(self):
        from repro.context import RunContext

        context = RunContext(seed=3, batch_mode="bitparallel")
        assert RunContext.from_dict(context.to_dict()) == context
        assert "batch_mode" not in RunContext(seed=3).to_dict()

    def test_estimator_spec_validates_batch_mode(self):
        from repro.api.specs import EstimatorSpec

        with pytest.raises(SpecValidationError):
            EstimatorSpec(approach="ris", num_samples=8, batch_mode="avx")
        spec = EstimatorSpec(approach="ris", num_samples=8, batch_mode="bitparallel")
        assert spec.batch_mode == "bitparallel"

    def test_factory_binds_batch_mode_for_batch_aware_approaches(self):
        from repro.experiments.factories import make_estimator

        ris = make_estimator("ris", 16, batch_mode="bitparallel")
        assert ris._batch_mode == "bitparallel"
        oneshot = make_estimator("oneshot", 16, batch_mode="bitparallel")
        assert oneshot._batch_mode == "bitparallel"
        # Structural heuristics and snapshots ignore the knob entirely.
        make_estimator("degree", 16, batch_mode="bitparallel")
        make_estimator("snapshot", 16, batch_mode="bitparallel")

    def test_maximize_runs_end_to_end_bitparallel(self, karate):
        import repro

        spec = repro.MaximizeSpec(
            graph=repro.GraphSpec(dataset="karate", probability="uc0.1"),
            estimator=repro.EstimatorSpec(approach="ris", num_samples=64),
            k=2,
            pool_size=300,
            context=repro.RunContext(seed=1, batch_mode="bitparallel"),
        )
        result = repro.run(spec)
        assert len(result.greedy.seed_set) == 2
        assert result.influence.value > 0
