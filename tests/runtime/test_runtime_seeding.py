"""Tests for the stateless stream-splitter in ``repro.runtime.seeding``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.random_source import RandomSource
from repro.exceptions import InvalidParameterError
from repro.runtime.seeding import (
    child_generator,
    child_sequence,
    child_sources,
    seed_key,
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

    def test_child_sources_wraps_random_source(self):
        sources = child_sources(9, 3)
        assert len(sources) == 3
        assert all(isinstance(source, RandomSource) for source in sources)
        again = child_sources(9, 3)
        for first, second in zip(sources, again):
            assert first.uniform() == second.uniform()
