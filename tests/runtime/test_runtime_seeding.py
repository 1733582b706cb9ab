"""Tests for the stateless stream-splitter in ``repro.runtime.seeding``."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.models import INDEPENDENT_CASCADE, LINEAR_THRESHOLD, _seeded_chunk_worker
from repro.diffusion.random_source import RandomSource, ReseatedGenerator, draw_streams
from repro.diffusion.reverse import concat_rr_arrays
from repro.exceptions import InvalidParameterError
from repro.runtime.chunking import chunk_spans, default_num_chunks
from repro.runtime.seeding import (
    child_generator,
    child_sequence,
    seed_key,
    unit_states,
)


class TestSeedKey:
    def test_int_root(self):
        assert seed_key(42) == (42, ())

    def test_seed_sequence_root(self):
        sequence = np.random.SeedSequence(7, spawn_key=(3,))
        assert seed_key(sequence) == (7, (3,))

    def test_random_source_root(self):
        assert seed_key(RandomSource(99)) == (99, ())

    def test_spawned_source_keeps_spawn_key(self):
        child = RandomSource(5).spawn(2)[1]
        entropy, spawn_key = seed_key(child)
        assert entropy == 5
        assert spawn_key == (1,)

    def test_generator_rejected(self):
        with pytest.raises(InvalidParameterError):
            seed_key(np.random.default_rng(0))

    @pytest.mark.parametrize(
        ("root", "named"),
        [
            (-1, "-1"),
            (np.int64(-2), "-2"),
            (1.5, "1.5"),
            (True, "True"),
            ("3", "str"),
            (None, "NoneType"),
        ],
    )
    def test_invalid_root_rejected_by_name(self, root, named):
        with pytest.raises(InvalidParameterError, match=named):
            seed_key(root)

    def test_numpy_integer_root(self):
        assert seed_key(np.int64(42)) == seed_key(42) == (42, ())

    @pytest.mark.parametrize("jobs", [None, 1])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.random.default_rng(0)])
    def test_monte_carlo_checks_seed_on_both_paths(self, karate_uc01, jobs, seed):
        # The serial and split-stream paths share one seed check, so an
        # invalid seed fails the same way whether or not jobs is given.
        from repro.estimation.monte_carlo import monte_carlo_spread

        with pytest.raises(InvalidParameterError, match="seed"):
            monte_carlo_spread(karate_uc01, (0,), 10, seed=seed, jobs=jobs)

    def test_key_is_picklable_plain_data(self):
        entropy, spawn_key = seed_key(RandomSource(5).spawn(1)[0])
        assert isinstance(entropy, int)
        assert all(isinstance(k, int) for k in spawn_key)


class TestChildDerivation:
    def test_stateless_and_repeatable(self):
        key = seed_key(123)
        first = child_generator(key, 4).random(8)
        second = child_generator(key, 4).random(8)
        assert np.array_equal(first, second)

    def test_distinct_indices_give_distinct_streams(self):
        key = seed_key(123)
        draws = [child_generator(key, index).random(4).tolist() for index in range(16)]
        assert len({tuple(d) for d in draws}) == 16

    def test_matches_fresh_spawn(self):
        # The stateless derivation reproduces exactly what SeedSequence.spawn
        # would hand out from a fresh parent.
        spawned = np.random.SeedSequence(77).spawn(3)
        key = seed_key(77)
        for index, child in enumerate(spawned):
            derived = child_sequence(key, index)
            assert derived.entropy == child.entropy
            assert tuple(derived.spawn_key) == tuple(child.spawn_key)


#: Roots whose split streams the bulk derivation must reproduce.
BULK_ROOTS = {
    "int": 123,
    "multi_word_int": 2**70 + 12345,
    "spawn_keyed_sequence": np.random.SeedSequence(7, spawn_key=(3, 2**40)),
    "spawned_grandchild": RandomSource(11).spawn(3)[2].spawn(2)[1],
    "int_list_entropy": np.random.SeedSequence([1, 2**33, 5, 6, 7]),
    "nested_entropy": np.random.SeedSequence([[1, 2**40], range(3)], spawn_key=(9,)),
}


class TestUnitStates:
    """The bulk-derived unit states are exactly ``child_generator``'s."""

    @staticmethod
    def _check(key, start, stop):
        states = list(unit_states(key, start, stop))
        assert len(states) == stop - start
        generators = ReseatedGenerator(iter(states))
        for index, state, generator in zip(range(start, stop), states, generators):
            child = child_generator(key, index)
            assert state == child.bit_generator.state
            assert generator.random(3).tolist() == child.random(3).tolist()
            assert int(generator.integers(1000)) == int(child.integers(1000))

    @pytest.mark.parametrize("root", sorted(BULK_ROOTS))
    def test_units_from_zero(self, root):
        self._check(seed_key(BULK_ROOTS[root]), 0, 40)

    @pytest.mark.parametrize("root", sorted(BULK_ROOTS))
    def test_span_across_bulk_passes(self, root):
        self._check(seed_key(BULK_ROOTS[root]), 1000, 1100)

    @pytest.mark.parametrize("root", ["int", "spawned_grandchild"])
    def test_indices_of_two_words_fall_back(self, root):
        self._check(seed_key(BULK_ROOTS[root]), 2**32 - 3, 2**32 + 3)
        self._check(seed_key(BULK_ROOTS[root]), 2**40, 2**40 + 2)

    def test_chunk_layout_does_not_change_states(self):
        key = seed_key(BULK_ROOTS["spawned_grandchild"])
        whole = list(unit_states(key, 0, 2500))
        for jobs in (2, 3, 7):
            spans = chunk_spans(2500, default_num_chunks(2500, jobs))
            assert [s for start, stop in spans for s in unit_states(key, start, stop)] == whole

    def test_draw_streams_serve_each_unit_its_own_draws(self):
        key = seed_key(5)
        streams = draw_streams(ReseatedGenerator(unit_states(key, 3, 40)))
        for index, stream in zip(range(3, 40), streams):
            child = child_generator(key, index)
            # A unit that outgrows its first block refills from its own state.
            count = 5 + 11 * (index % 9)
            assert stream.integers(34) == int(child.integers(34))
            draws = stream.reserve(count)
            assert [next(draws) for _ in range(count)] == child.random(count).tolist()
            assert stream.array(70).tolist() == child.random(70).tolist()
            assert stream.integers(2**31 + 1) == int(child.integers(2**31 + 1))


def _kernels(graph):
    """``(name, kernel, bitparallel)`` for every chunk-worker kernel of IC and LT."""
    for model in (INDEPENDENT_CASCADE, LINEAR_THRESHOLD):
        for bitparallel in (False, True):
            yield (
                (model.name, "rr", bitparallel),
                partial(model._rr_kernel, graph),
                bitparallel,
            )
            yield (
                (model.name, "count", bitparallel),
                partial(model._count_kernel, graph, (0, 33)),
                bitparallel,
            )
            yield (
                (model.name, "cascade", bitparallel),
                partial(model._cascade_kernel, graph, (0,)),
                bitparallel,
            )
        yield (model.name, "snapshot", False), partial(model._snapshot_kernel, graph), False


def _comparable(chunk):
    """A chunk result as plain data: arrays, snapshots and results compared by value."""
    if isinstance(chunk, tuple):
        return [np.asarray(column).tolist() for column in chunk]
    if chunk and hasattr(chunk[0], "parent"):
        return [snapshot.parent.tolist() for snapshot in chunk]
    if chunk and hasattr(chunk[0], "indptr"):
        return [(s.indptr.tolist(), s.targets.tolist()) for s in chunk]
    return list(chunk)


class TestSeededChunkWorker:
    """One span equals the same span split in two, and the per-unit generators."""

    UNITS = 9

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs import assign_probabilities, load_dataset

        return assign_probabilities(load_dataset("karate"), "iwc")

    def test_split_span_and_unit_generators_agree(self, graph):
        key = seed_key(21)
        for name, kernel, bitparallel in _kernels(graph):
            count = self.UNITS * (64 if bitparallel else 1) - 5
            payload = (kernel, count, bitparallel)
            whole, whole_cost, whole_size = _seeded_chunk_worker(payload, key, 0, self.UNITS)
            head, head_cost, head_size = _seeded_chunk_worker(payload, key, 0, 4)
            tail, tail_cost, tail_size = _seeded_chunk_worker(payload, key, 4, self.UNITS)
            if isinstance(whole, tuple):
                joined = concat_rr_arrays([head, tail])
            else:
                joined = list(head) + list(tail)
            assert _comparable(joined) == _comparable(whole), name
            head_cost.merge(tail_cost)
            head_size.merge(tail_size)
            assert (head_cost.vertices, head_cost.edges) == (whole_cost.vertices, whole_cost.edges)
            assert head_size.vertices == whole_size.vertices
            # The re-seated generator draws what a generator per unit draws.
            reference = kernel(
                bitparallel,
                count,
                (child_generator(key, index) for index in range(self.UNITS)),
                TraversalCost(),
                SampleSize(),
            )
            assert _comparable(reference) == _comparable(whole), name
