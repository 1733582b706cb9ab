"""The level-synchronous split-stream IC RR kernel equals the per-unit path.

Under ``jobs`` a chunk's RR sets come from :func:`repro.diffusion.reverse.
_split_stream_rr_sets`, which advances every unit of a batch one BFS level
at a time.  Each case here compares the chunk worker's output against the
per-unit scalar path (one ``child_generator`` and one ``DrawStream`` per
unit) in all four ``RRArrays`` columns and in the cost and sample-size
totals.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pytest

from repro.diffusion import reverse
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.models import INDEPENDENT_CASCADE, _seeded_chunk_worker
from repro.diffusion.random_source import RandomSource, ReseatedGenerator
from repro.graphs.generators import complete, directed_scale_free
from repro.graphs.probability import in_degree_weighted_cascade, uniform_cascade
from repro.runtime.seeding import child_generator, seed_key

KEY = seed_key(RandomSource(1))


@pytest.fixture(scope="module")
def low_reach():
    """Most RR sets are the target alone; 14 of the 300 vertices have no in-edge."""
    return uniform_cascade(directed_scale_free(300, 3.0, seed=2), 0.01)


@pytest.fixture(scope="module")
def scale_free_iwc():
    """Heavy-tailed RR sets: a few hundred draws on average, thousands at most."""
    return in_degree_weighted_cascade(directed_scale_free(2000, 10.0))


def _chunk(graph, start, stop, key=KEY):
    """The chunk worker's ``(arrays, cost, sample_size)`` for units ``start..stop-1``."""
    kernel = partial(INDEPENDENT_CASCADE._rr_kernel, graph)
    return _seeded_chunk_worker((kernel, stop, False), key, start, stop)


def _per_unit(graph, start, stop, key=KEY):
    """The same units along the per-unit scalar path, one generator each."""
    cost, sample_size = TraversalCost(), SampleSize()
    generators = [child_generator(key, index) for index in range(start, stop)]
    arrays = INDEPENDENT_CASCADE._rr_kernel(
        graph, False, stop - start, generators, cost, sample_size
    )
    return arrays, cost, sample_size


def _assert_same(graph, start, stop, key=KEY):
    arrays, cost, sample_size = _chunk(graph, start, stop, key)
    expected, expected_cost, expected_size = _per_unit(graph, start, stop, key)
    for column, expected_column in zip(arrays, expected):
        assert column.dtype == np.int64
        assert column.tolist() == expected_column.tolist()
    assert (cost.vertices, cost.edges) == (expected_cost.vertices, expected_cost.edges)
    assert sample_size.vertices == expected_size.vertices
    return arrays


class TestMatchesPerUnitPath:
    def test_karate(self, karate_uc01):
        _assert_same(karate_uc01, 0, 2000)

    def test_low_reach_graph_with_zero_weight_targets(self, low_reach):
        targets, sizes, _, weights = _assert_same(low_reach, 0, 1500)
        no_in_edges = low_reach.in_degrees()[targets] == 0
        assert no_in_edges.any()
        assert (weights[no_in_edges] == 0).all()
        assert (sizes[no_in_edges] == 1).all()

    def test_windows_grow_several_times(self, scale_free_iwc, monkeypatch):
        fetches = Counter()
        words = ReseatedGenerator.words

        def counted(self, state, start, count):
            fetches[state["state"]["state"]] += 1
            return words(self, state, start, count)

        monkeypatch.setattr(ReseatedGenerator, "words", counted)
        _, _, _, weights = _assert_same(scale_free_iwc, 0, 400)
        assert weights.max() > 16 * reverse._FIRST_WINDOW
        assert max(fetches.values()) >= 3

    def test_span_crosses_batch_boundaries(self, scale_free_iwc, monkeypatch):
        # 25 units a batch: the span starts and ends inside a batch.
        per_unit = (scale_free_iwc.num_vertices + 7) // 8 + 16 * reverse._FIRST_WINDOW
        monkeypatch.setattr(reverse, "_LEVEL_BUDGET", 25 * per_unit)
        _assert_same(scale_free_iwc, 13, 120)

    def test_split_span_concatenates(self, karate_uc01):
        whole = _chunk(karate_uc01, 0, 700)[0]
        halves = reverse.concat_rr_arrays(
            [_chunk(karate_uc01, 0, 311)[0], _chunk(karate_uc01, 311, 700)[0]]
        )
        assert [column.tolist() for column in whole] == [column.tolist() for column in halves]

    @pytest.mark.parametrize("graph_name", ["karate_uc01", "scale_free_iwc"])
    def test_budget_of_one_unit_a_batch(self, graph_name, request, monkeypatch):
        # One unit a batch, and a pool of one first window: every unit that
        # outgrows it is evicted and starts over on the scalar path.
        monkeypatch.setattr(reverse, "_LEVEL_BUDGET", 1)
        _assert_same(request.getfixturevalue(graph_name), 0, 150)

    def test_forced_lemire_rejection(self, scale_free_iwc, monkeypatch):
        rejected = reverse._lemire_rejected

        def every_third(scaled, n):
            forced = rejected(scaled, n)
            forced[::3] = True
            scaled[::3] = 0  # a rejected draw's bulk target means nothing
            return forced

        monkeypatch.setattr(reverse, "_lemire_rejected", every_third)
        _assert_same(scale_free_iwc, 0, 200)

    def test_certain_edges(self):
        # p = 1 puts the live test's limit at 2**64 - 1: every draw is live.
        arrays = _assert_same(complete(6), 0, 50)
        assert (arrays[1] == 6).all()

    def test_indices_past_two_to_the_32(self, karate_uc01, scale_free_iwc):
        _assert_same(karate_uc01, 2**32 - 40, 2**32 + 40)
        _assert_same(scale_free_iwc, 2**32 - 3, 2**32 + 3)


def test_jobs_one_equals_jobs_two(scale_free_iwc):
    stores, costs = [], []
    for jobs in (1, 2):
        cost = TraversalCost()
        stores.append(
            INDEPENDENT_CASCADE.sample_rr_store(scale_free_iwc, 600, 9, jobs=jobs, cost=cost)
        )
        costs.append((cost.vertices, cost.edges))
    one, two = stores
    assert [(r.target, r.vertices, r.weight) for r in one] == [
        (r.target, r.vertices, r.weight) for r in two
    ]
    assert costs[0] == costs[1]
