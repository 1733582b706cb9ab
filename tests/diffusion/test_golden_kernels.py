"""Golden determinism tests for the vectorized frontier kernels.

Two layers of protection against draw-order drift:

* **Reference equivalence** — the vectorized kernels must reproduce the
  per-vertex reference loops (``tests/reference_kernels.py``, kept verbatim
  from the pre-vectorization code) bit-for-bit: activation order, RR-set
  contents and weights, traversal-cost totals, and PRNG stream consumption,
  across graphs whose frontiers cross the scalar/vectorized threshold in both
  directions.  Whole batches (serial, one generator per task unit, and
  ``jobs=2``) are held to the same loops, down to the next ``random()`` and
  ``integers(n)`` of every generator afterwards.  The Snapshot lane query on
  one snapshot must equal the reference BFS's count and cost, blocked lanes
  included.
* **Pinned goldens** — concrete values captured from the pre-refactor code on
  karate and a random scale-free graph.  These catch the failure mode the
  reference comparison cannot: both implementations drifting together.

The pinned values also cover the runtime's split-stream path (``jobs=1`` ==
``jobs=4`` == the pinned collection) and the LT model (whose kernels share
the result types and must stay byte-identical through the refactor).
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_kernels import (
    reachable_set_reference,
    sample_rr_set_reference,
    simulate_cascade_reference,
)
from repro.diffusion import cascade as cascade_module
from repro.diffusion import reverse as reverse_module
from repro.diffusion.cascade import simulate_cascade, simulate_cascades, simulate_spread
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.frontier import SCALAR_FRONTIER_LIMIT, use_scalar_frontier
from repro.diffusion.linear_threshold import sample_lt_snapshot
from repro.diffusion.models import INDEPENDENT_CASCADE, LINEAR_THRESHOLD
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import RRSetCollection, sample_rr_set, sample_rr_sets
from repro.diffusion.snapshot_lanes import SnapshotLanes
from repro.diffusion.snapshots import sample_snapshot
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import directed_scale_free
from repro.graphs.probability import assign_probabilities
from repro.runtime.seeding import child_generator, seed_key


@pytest.fixture(scope="module")
def karate():
    return assign_probabilities(load_dataset("karate"), "iwc")


@pytest.fixture(scope="module")
def scale_free():
    return assign_probabilities(
        directed_scale_free(300, average_out_degree=6.0, seed=7, hub_bias=0.6), "iwc"
    )


def _graphs_for_equivalence():
    """Graph family crossing the scalar/vectorized frontier threshold."""
    specs = []
    for seed in range(10):
        model = ("iwc", "uc0.1", "trivalency")[seed % 3]
        specs.append((seed, model))
    return specs


class TestReferenceEquivalence:
    """Vectorized kernels == per-vertex reference loops, bit for bit."""

    @pytest.mark.parametrize("seed,prob_model", _graphs_for_equivalence())
    def test_cascade_order_cost_and_stream(self, seed, prob_model):
        graph = assign_probabilities(
            directed_scale_free(150, average_out_degree=10.0, seed=seed), prob_model
        )
        reference_cost, vector_cost = TraversalCost(), TraversalCost()
        reference_rng = RandomSource(seed).generator
        vector_rng = RandomSource(seed).generator
        reference = simulate_cascade_reference(
            graph, (0, 1, 2, 3), reference_rng, cost=reference_cost
        )
        vectorized = simulate_cascade(graph, (0, 1, 2, 3), vector_rng, cost=vector_cost)
        assert vectorized.activated == reference.activated
        assert (vector_cost.vertices, vector_cost.edges) == (
            reference_cost.vertices,
            reference_cost.edges,
        )
        # Stream consumption must match exactly: the next draw agrees.
        assert reference_rng.random() == vector_rng.random()

    @pytest.mark.parametrize("seed,prob_model", _graphs_for_equivalence())
    def test_rr_set_contents_weight_cost_and_stream(self, seed, prob_model):
        graph = assign_probabilities(
            directed_scale_free(150, average_out_degree=10.0, seed=seed), prob_model
        )
        reference_cost, vector_cost = TraversalCost(), TraversalCost()
        reference_size, vector_size = SampleSize(), SampleSize()
        reference_rng = RandomSource(seed + 50).generator
        vector_rng = RandomSource(seed + 50).generator
        reference = sample_rr_set_reference(
            graph, reference_rng, cost=reference_cost, sample_size=reference_size
        )
        vectorized = sample_rr_set(
            graph, vector_rng, cost=vector_cost, sample_size=vector_size
        )
        assert (vectorized.target, vectorized.vertices, vectorized.weight) == (
            reference.target,
            reference.vertices,
            reference.weight,
        )
        assert (vector_cost.vertices, vector_cost.edges) == (
            reference_cost.vertices,
            reference_cost.edges,
        )
        assert vector_size.vertices == reference_size.vertices
        assert reference_rng.random() == vector_rng.random()

    @pytest.mark.parametrize("seed,prob_model", _graphs_for_equivalence())
    def test_lane_reachability_count_and_cost(self, seed, prob_model):
        graph = assign_probabilities(
            directed_scale_free(150, average_out_degree=10.0, seed=seed), prob_model
        )
        snapshot = sample_snapshot(graph, RandomSource(seed + 99))
        lanes = SnapshotLanes([snapshot])
        blocked = np.zeros(graph.num_vertices, dtype=bool)
        # Nothing blocked, then the reach of 7, then also that of 0 (a seed).
        for chosen in (7, 0, None):
            reference_cost, lane_cost = TraversalCost(), TraversalCost()
            reference = reachable_set_reference(
                snapshot, (0, 2), cost=reference_cost, blocked=blocked
            )
            count = lanes.reachable_count((0, 2), cost=lane_cost, blocked=True)
            assert count == len(reference)
            assert lane_cost == reference_cost
            if chosen is not None:
                reached = reachable_set_reference(snapshot, (chosen,), blocked=blocked)
                assert lanes.block_reachable((chosen,)) == len(reached)
                blocked[list(reached)] = True

    def test_batch_equals_repeated_single_calls(self, karate):
        single_rng = RandomSource(3).generator
        singles = [simulate_cascade_reference(karate, (0,), single_rng) for _ in range(20)]
        batch = simulate_cascades(karate, (0,), 20, RandomSource(3))
        assert [result.activated for result in batch] == [
            result.activated for result in singles
        ]

        single_rng = RandomSource(4).generator
        single_sets = [sample_rr_set_reference(karate, single_rng) for _ in range(20)]
        batch_sets = sample_rr_sets(karate, 20, RandomSource(4))
        assert [(r.target, r.vertices, r.weight) for r in batch_sets] == [
            (r.target, r.vertices, r.weight) for r in single_sets
        ]


def _graph(name):
    """karate (every BFS level small) or a scale-free graph whose levels cross the limit."""
    if name == "karate":
        return assign_probabilities(load_dataset("karate"), "uc0.1")
    return assign_probabilities(directed_scale_free(300, average_out_degree=6.0, seed=7), "uc0.2")


def _reference_cascades(graph, seeds, generators):
    cost = TraversalCost()
    results = [
        simulate_cascade_reference(graph, seeds, generator, cost=cost) for generator in generators
    ]
    return results, cost


def _reference_rr_sets(graph, generators):
    cost, size = TraversalCost(), SampleSize()
    rr_sets = [
        sample_rr_set_reference(graph, generator, cost=cost, sample_size=size)
        for generator in generators
    ]
    return rr_sets, cost, size


def _next_draws(generator, num_vertices):
    return generator.random(), int(generator.integers(num_vertices))


def _rr_key(rr_set):
    return rr_set.target, rr_set.vertices, rr_set.weight


BATCH_SEEDS = (0, 5)
BATCH_COUNT = 40
GRAPH_NAMES = ("karate", "scale_free")


class TestBatchedKernelsMatchReference:
    """Batched scalar kernels == the reference loops, generator state included."""

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_level_sizes_cover_both_branches(self, name, monkeypatch):
        sizes = []

        def recording(frontier):
            sizes.append(len(frontier))
            return use_scalar_frontier(frontier)

        monkeypatch.setattr(cascade_module, "use_scalar_frontier", recording)
        monkeypatch.setattr(reverse_module, "use_scalar_frontier", recording)
        graph = _graph(name)
        simulate_cascades(graph, BATCH_SEEDS, BATCH_COUNT, RandomSource(17))
        forward_sizes, sizes[:] = list(sizes), []
        sample_rr_sets(graph, BATCH_COUNT, RandomSource(17))
        for level_sizes in (forward_sizes, sizes):
            assert min(level_sizes) < SCALAR_FRONTIER_LIMIT
            crossed = max(level_sizes) >= SCALAR_FRONTIER_LIMIT
            assert crossed == (name == "scale_free")

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_serial_cascades(self, name):
        graph = _graph(name)
        batch_rng, reference_rng = RandomSource(17).generator, RandomSource(17).generator
        cost = TraversalCost()
        batch = simulate_cascades(graph, BATCH_SEEDS, BATCH_COUNT, batch_rng, cost=cost)
        reference, reference_cost = _reference_cascades(
            graph, BATCH_SEEDS, [reference_rng] * BATCH_COUNT
        )
        assert [r.activated for r in batch] == [r.activated for r in reference]
        assert cost == reference_cost
        assert _next_draws(batch_rng, graph.num_vertices) == _next_draws(
            reference_rng, graph.num_vertices
        )

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_serial_rr_sets(self, name):
        graph = _graph(name)
        batch_rng, reference_rng = RandomSource(23).generator, RandomSource(23).generator
        cost, size = TraversalCost(), SampleSize()
        batch = sample_rr_sets(graph, BATCH_COUNT, batch_rng, cost=cost, sample_size=size)
        reference, reference_cost, reference_size = _reference_rr_sets(
            graph, [reference_rng] * BATCH_COUNT
        )
        assert list(map(_rr_key, batch)) == list(map(_rr_key, reference))
        assert (cost, size) == (reference_cost, reference_size)
        assert _next_draws(batch_rng, graph.num_vertices) == _next_draws(
            reference_rng, graph.num_vertices
        )

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_per_unit_generators(self, name):
        """The chunk workers' form: one generator per task unit, each left where the loop leaves it."""
        graph = _graph(name)
        key = seed_key(31)

        def units():
            return [child_generator(key, index) for index in range(BATCH_COUNT)]

        batch_units, reference_units = units(), units()
        cost = TraversalCost()
        counts = INDEPENDENT_CASCADE._count_kernel(
            graph, BATCH_SEEDS, False, BATCH_COUNT, batch_units, cost, SampleSize()
        )
        reference, reference_cost = _reference_cascades(graph, BATCH_SEEDS, reference_units)
        assert counts == [r.num_activated for r in reference]
        assert cost == reference_cost
        batch_units, reference_units = units(), units()
        cost, size = TraversalCost(), SampleSize()
        rr_sets = RRSetCollection.from_arrays(
            INDEPENDENT_CASCADE._rr_kernel(graph, False, BATCH_COUNT, batch_units, cost, size),
            graph.num_vertices,
        )
        reference_sets, reference_cost, reference_size = _reference_rr_sets(
            graph, reference_units
        )
        assert list(map(_rr_key, rr_sets)) == list(map(_rr_key, reference_sets))
        assert (cost, size) == (reference_cost, reference_size)
        for batch_unit, reference_unit in zip(batch_units, reference_units):
            assert _next_draws(batch_unit, graph.num_vertices) == _next_draws(
                reference_unit, graph.num_vertices
            )

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_jobs_two(self, name):
        graph = _graph(name)
        key = seed_key(31)
        cost = TraversalCost()
        counts = INDEPENDENT_CASCADE._activation_counts(
            graph, BATCH_SEEDS, BATCH_COUNT, 31, None, cost=cost, jobs=2
        )
        reference, reference_cost = _reference_cascades(
            graph, BATCH_SEEDS, [child_generator(key, i) for i in range(BATCH_COUNT)]
        )
        assert counts == [r.num_activated for r in reference]
        assert cost == reference_cost
        cost, size = TraversalCost(), SampleSize()
        rr_sets = sample_rr_sets(graph, BATCH_COUNT, 31, cost=cost, sample_size=size, jobs=2)
        reference_sets, reference_cost, reference_size = _reference_rr_sets(
            graph, [child_generator(key, i) for i in range(BATCH_COUNT)]
        )
        assert list(map(_rr_key, rr_sets)) == list(map(_rr_key, reference_sets))
        assert (cost, size) == (reference_cost, reference_size)

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_scalar_spread_is_reference_mean(self, name):
        graph = _graph(name)
        spread_rng, reference_rng = RandomSource(8).generator, RandomSource(8).generator
        cost = TraversalCost()
        spread = simulate_spread(graph, BATCH_SEEDS, BATCH_COUNT, spread_rng, cost=cost)
        reference, reference_cost = _reference_cascades(
            graph, BATCH_SEEDS, [reference_rng] * BATCH_COUNT
        )
        assert spread == sum(r.num_activated for r in reference) / BATCH_COUNT
        assert cost == reference_cost
        assert _next_draws(spread_rng, graph.num_vertices) == _next_draws(
            reference_rng, graph.num_vertices
        )


#: Values captured from the pre-refactor per-vertex loops (RandomSource(11),
#: seeds (0, 5), iwc probabilities) — see the module docstring.
KARATE_CASCADE_GOLDEN = (
    0, 5, 4, 7, 8, 11, 12, 19, 21, 6, 30, 16, 33, 13, 14, 20, 22, 23, 26, 29,
    32, 2, 25, 9, 28, 24, 31, 27,
)
#: Re-captured when directed_scale_free gained deterministic (sorted) edge
#: emission per source — the edge *set* per seed is unchanged, but the edge
#: order (and hence the kernel draw order on this graph) is now independent
#: of Python's set iteration order.
SCALE_FREE_CASCADE_GOLDEN = (
    0, 5, 39, 151, 32, 140, 159, 43, 18, 294, 35, 162, 218, 295, 286, 166,
    298, 6, 15, 50, 37, 52, 129, 189, 41, 243, 285, 91, 153, 20, 72, 289, 66,
    86, 173, 36, 103, 290, 79, 219, 94, 161, 106, 179, 194, 97, 17, 183, 229,
    28, 143,
)


class TestPinnedGoldens:
    """Hard-coded pre-refactor outputs on karate and a scale-free graph."""

    def test_karate_cascade(self, karate):
        cost = TraversalCost()
        result = simulate_cascade(karate, (0, 5), RandomSource(11), cost=cost)
        assert result.activated == KARATE_CASCADE_GOLDEN
        assert (cost.vertices, cost.edges) == (28, 132)

    def test_scale_free_cascade(self, scale_free):
        cost = TraversalCost()
        result = simulate_cascade(scale_free, (0, 5), RandomSource(11), cost=cost)
        assert result.activated == SCALE_FREE_CASCADE_GOLDEN
        assert (cost.vertices, cost.edges) == (51, 298)

    def test_karate_rr_set(self, karate):
        cost, size = TraversalCost(), SampleSize()
        rr_set = sample_rr_set(karate, RandomSource(22), cost=cost, sample_size=size)
        assert rr_set.target == 26
        assert sorted(rr_set.vertices) == [9, 15, 26, 29, 33]
        assert rr_set.weight == 27
        assert (cost.vertices, cost.edges, size.vertices) == (5, 27, 5)

    def test_scale_free_rr_set(self, scale_free):
        cost, size = TraversalCost(), SampleSize()
        rr_set = sample_rr_set(scale_free, RandomSource(22), cost=cost, sample_size=size)
        assert rr_set.target == 231
        assert sorted(rr_set.vertices) == [0, 56, 58, 76, 90, 139, 179, 231, 241, 242]
        assert rr_set.weight == 78
        assert (cost.vertices, cost.edges, size.vertices) == (10, 78, 10)

    def test_karate_snapshot_reachability(self, karate):
        snapshot = sample_snapshot(karate, RandomSource(33))
        assert snapshot.num_live_edges == 35
        cost = TraversalCost()
        reach = reachable_set_reference(snapshot, (0,), cost=cost)
        assert sorted(reach) == [0, 3, 4, 5, 6, 10, 11, 12, 13, 16, 17, 21]
        assert (cost.vertices, cost.edges) == (12, 12)
        cost = TraversalCost()
        assert SnapshotLanes([snapshot]).reachable_count((0,), cost=cost) == 12
        assert (cost.vertices, cost.edges) == (12, 12)

    def test_scale_free_snapshot_reachability(self, scale_free):
        snapshot = sample_snapshot(scale_free, RandomSource(33))
        assert snapshot.num_live_edges == 301
        cost = TraversalCost()
        assert reachable_set_reference(snapshot, (0,), cost=cost) == {0}
        assert (cost.vertices, cost.edges) == (1, 0)
        cost = TraversalCost()
        assert SnapshotLanes([snapshot]).reachable_count((0,), cost=cost) == 1
        assert (cost.vertices, cost.edges) == (1, 0)


class TestSplitStreamGoldens:
    """jobs=1 == jobs=4 == the pre-refactor split-stream collections."""

    def test_rr_sets_jobs_pinned_and_equal(self, karate):
        jobs_one = sample_rr_sets(karate, 50, RandomSource(9), jobs=1)
        jobs_four = sample_rr_sets(karate, 50, RandomSource(9), jobs=4)
        as_tuples = [(r.target, sorted(r.vertices), r.weight) for r in jobs_one]
        assert as_tuples == [
            (r.target, sorted(r.vertices), r.weight) for r in jobs_four
        ]
        assert as_tuples[:3] == [
            (12, [0, 5, 6, 12, 16], 28),
            (19, [0, 4, 6, 19], 26),
            (23, [23], 5),
        ]

    def test_rr_jobs_cost_totals_independent_of_workers(self, karate):
        cost_one, cost_four = TraversalCost(), TraversalCost()
        size_one, size_four = SampleSize(), SampleSize()
        sample_rr_sets(karate, 50, RandomSource(9), jobs=1, cost=cost_one, sample_size=size_one)
        sample_rr_sets(karate, 50, RandomSource(9), jobs=4, cost=cost_four, sample_size=size_four)
        assert (cost_one.vertices, cost_one.edges) == (cost_four.vertices, cost_four.edges)
        assert size_one.vertices == size_four.vertices

    def test_monte_carlo_pinned_serial_and_jobs(self, karate):
        assert monte_carlo_spread(karate, (0, 33), 200, seed=5).mean == 18.44
        assert monte_carlo_spread(karate, (0, 33), 200, seed=5, jobs=1).mean == 17.635
        assert monte_carlo_spread(karate, (0, 33), 200, seed=5, jobs=4).mean == 17.635


class TestLinearThresholdGoldens:
    """LT shares the result types; its outputs must survive the refactor."""

    def test_lt_cascade_pinned(self, karate):
        result = LINEAR_THRESHOLD.simulate_cascade(karate, (0,), RandomSource(13))
        assert result.activated == (0, 4, 7, 10, 11, 12, 17, 3)

    def test_lt_rr_set_pinned(self, karate):
        rr_set = LINEAR_THRESHOLD.sample_rr_set(karate, RandomSource(14))
        assert (rr_set.target, sorted(rr_set.vertices), rr_set.weight) == (5, [5, 6], 8)

    def test_lt_snapshot_pinned(self, karate, scale_free):
        generator = RandomSource(16).generator
        snapshot = sample_lt_snapshot(karate, generator)
        assert snapshot.parent.tolist() == [
            11, 7, 0, 2, 6, 0, 16, 3, 0, 33, 0, 0, 0, 3, 33, 33, 6, 0, 32, 0,
            33, 0, 33, 29, 25, 24, 33, 23, 33, 32, 1, 32, 29, 29,
        ]
        assert generator.random() == 0.14893145498491134
        # 14 of the 300 vertices have no in-edge and take no draw.
        generator = RandomSource(16).generator
        parent = sample_lt_snapshot(scale_free, generator).parent.tolist()
        assert parent[:12] == [274, 150, 122, 51, 185, 68, 291, 287, 12, 296, 91, 170]
        assert (parent.count(-1), sum(parent)) == (14, 41869)
        assert generator.random() == 0.7637280755336298

    def test_lt_jobs_equal(self, karate):
        jobs_one = LINEAR_THRESHOLD.sample_rr_sets(karate, 20, RandomSource(15), jobs=1)
        jobs_four = LINEAR_THRESHOLD.sample_rr_sets(karate, 20, RandomSource(15), jobs=4)
        assert [(r.target, r.vertices, r.weight) for r in jobs_one] == [
            (r.target, r.vertices, r.weight) for r in jobs_four
        ]
