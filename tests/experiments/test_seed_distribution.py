"""Tests for seed-set distributions and Shannon entropy."""

from __future__ import annotations

import math

import pytest

from repro.experiments.seed_distribution import SeedSetDistribution, shannon_entropy


class TestSeedSetDistribution:
    def test_from_seed_sets_canonicalises(self):
        distribution = SeedSetDistribution.from_seed_sets([(1, 0), (0, 1), (2, 3)])
        assert distribution.num_trials == 3
        assert distribution.probability((0, 1)) == pytest.approx(2 / 3)
        assert distribution.probability((3, 2)) == pytest.approx(1 / 3)

    def test_degenerate_distribution(self):
        distribution = SeedSetDistribution.from_seed_sets([(5,)] * 10)
        assert distribution.support_size == 1
        assert distribution.entropy() == 0.0

    def test_uniform_distribution_entropy(self):
        seed_sets = [(0,), (1,), (2,), (3,)]
        distribution = SeedSetDistribution.from_seed_sets(seed_sets)
        assert distribution.entropy() == pytest.approx(2.0)

    def test_entropy_never_exceeds_log2_trials(self):
        seed_sets = [(index,) for index in range(10)]
        distribution = SeedSetDistribution.from_seed_sets(seed_sets)
        assert distribution.entropy() <= math.log2(distribution.num_trials) + 1e-12

    def test_mode(self):
        distribution = SeedSetDistribution.from_seed_sets([(0,), (0,), (1,)])
        seed_set, probability = distribution.mode()
        assert seed_set == (0,)
        assert probability == pytest.approx(2 / 3)

    def test_top_seed_sets_ordered(self):
        distribution = SeedSetDistribution.from_seed_sets([(0,)] * 3 + [(1,)] * 2 + [(2,)])
        top = distribution.top_seed_sets(2)
        assert top[0][0] == (0,)
        assert top[1][0] == (1,)

    def test_unseen_seed_set_probability_zero(self):
        distribution = SeedSetDistribution.from_seed_sets([(0,)])
        assert distribution.probability((9,)) == 0.0

    def test_empty_distribution(self):
        distribution = SeedSetDistribution.from_seed_sets([])
        assert distribution.entropy() == 0.0
        assert distribution.mode() == ((), 0.0)
        assert distribution.probability((0,)) == 0.0

    def test_two_equal_ties_entropy_one(self):
        # The paper's "plateau at entropy 1" situation: two seed sets chosen
        # with near-equal probability.
        distribution = SeedSetDistribution.from_seed_sets([(0,)] * 50 + [(1,)] * 50)
        assert distribution.entropy() == pytest.approx(1.0)


class TestHelpers:
    def test_shannon_entropy_wrapper(self):
        assert shannon_entropy([(0,), (1,)]) == pytest.approx(1.0)
