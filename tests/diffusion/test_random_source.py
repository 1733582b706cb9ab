"""Tests for the seeded random source and trial-seed derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.random_source import RandomSource, trial_seeds
from repro.exceptions import InvalidParameterError


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert a.uniform(5).tolist() == b.uniform(5).tolist()

    def test_different_seed_different_stream(self):
        assert RandomSource(1).uniform(10).tolist() != RandomSource(2).uniform(10).tolist()

    def test_scalar_uniform_in_unit_interval(self):
        source = RandomSource(0)
        for _ in range(100):
            value = source.uniform()
            assert 0.0 <= value < 1.0

    def test_integers_in_range(self):
        source = RandomSource(0)
        draws = source.integers(7, size=200)
        assert draws.min() >= 0
        assert draws.max() < 7

    def test_scalar_integer(self):
        assert isinstance(RandomSource(0).integers(10), int)

    def test_permutation_is_permutation(self):
        perm = RandomSource(3).permutation(20)
        assert sorted(perm.tolist()) == list(range(20))

    def test_spawn_children_are_independent_and_deterministic(self):
        children_a = RandomSource(7).spawn(3)
        children_b = RandomSource(7).spawn(3)
        for child_a, child_b in zip(children_a, children_b):
            assert child_a.uniform(4).tolist() == child_b.uniform(4).tolist()
        streams = [tuple(np.round(child.uniform(4), 12)) for child in RandomSource(7).spawn(3)]
        assert len(set(streams)) == 3

    @pytest.mark.parametrize(
        ("seed", "named"),
        [
            (-1, "-1"),
            (np.int64(-2), "-2"),
            (1.5, "1.5"),
            (True, "True"),
            ("3", "str"),
            (None, "NoneType"),
            (np.random.default_rng(0), "Generator"),
            (RandomSource(4), "RandomSource"),
        ],
    )
    def test_negative_seed_rejected(self, seed, named):
        # Nothing is truncated or coerced: a float, bool or string seed would
        # otherwise silently run some other integer seed's stream.
        with pytest.raises(InvalidParameterError, match=named):
            RandomSource(seed)

    def test_numpy_integer_seed_is_the_int_stream(self):
        assert RandomSource(np.int64(5)).uniform(4).tolist() == RandomSource(5).uniform(4).tolist()
        assert RandomSource(np.uint8(0)).uniform(4).tolist() == RandomSource().uniform(4).tolist()

    def test_generator_exposed(self):
        assert isinstance(RandomSource(0).generator, np.random.Generator)


class TestTrialSeeds:
    def test_count_and_determinism(self):
        seeds_a = trial_seeds(5, 10)
        seeds_b = trial_seeds(5, 10)
        assert len(seeds_a) == 10
        assert seeds_a == seeds_b

    def test_distinct_within_experiment(self):
        seeds = trial_seeds(0, 200)
        assert len(set(seeds)) == 200

    def test_different_experiments_differ(self):
        assert trial_seeds(1, 5) != trial_seeds(2, 5)

    def test_zero_trials(self):
        assert trial_seeds(0, 0) == []
