"""Tests for the greedy framework (Algorithm 3.1) and GreedyResult."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.algorithms.exact import ExactEstimator
from repro.algorithms.framework import GreedyResult, greedy_maximize
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.diffusion.random_source import RandomSource
from repro.exceptions import InvalidParameterError


class TestGreedyMaximize:
    def test_picks_optimal_seed_on_star(self, star_graph):
        result = greedy_maximize(star_graph, 1, ExactEstimator(), seed=0)
        assert result.seed_set == (0,)
        assert result.estimates[0] == pytest.approx(6.0)

    def test_picks_both_hubs(self, two_hubs_graph):
        result = greedy_maximize(two_hubs_graph, 2, ExactEstimator(), seed=0)
        assert result.seed_set == (0, 4)

    def test_greedy_order_prefers_larger_hub_first(self, two_hubs_graph):
        result = greedy_maximize(two_hubs_graph, 2, ExactEstimator(), seed=0)
        assert result.seeds[0] == 0

    def test_k_larger_than_candidates_rejected(self, star_graph):
        with pytest.raises(InvalidParameterError):
            greedy_maximize(star_graph, 7, ExactEstimator(), seed=0)

    def test_k_must_be_positive(self, star_graph):
        with pytest.raises(InvalidParameterError):
            greedy_maximize(star_graph, 0, ExactEstimator(), seed=0)

    def test_no_duplicate_seeds(self, karate_uc01):
        result = greedy_maximize(karate_uc01, 8, RISEstimator(256), seed=0)
        assert len(set(result.seeds)) == 8

    def test_candidate_restriction(self, star_graph):
        result = greedy_maximize(
            star_graph, 1, ExactEstimator(), seed=0, candidate_vertices=(2, 3, 4)
        )
        assert result.seed_set[0] in {2, 3, 4}

    def test_candidate_out_of_range(self, star_graph):
        with pytest.raises(InvalidParameterError):
            greedy_maximize(
                star_graph, 1, ExactEstimator(), seed=0, candidate_vertices=(99,)
            )

    @pytest.mark.parametrize(
        "bad", [1.7, 2.0, True, np.bool_(False), "3", None], ids=repr
    )
    def test_candidate_non_integer_rejected_by_name(self, star_graph, bad):
        with pytest.raises(InvalidParameterError, match=re.escape(repr(bad))):
            greedy_maximize(
                star_graph, 1, ExactEstimator(), seed=0, candidate_vertices=(1, bad)
            )

    @pytest.mark.parametrize(
        "candidates",
        [(np.int64(2), np.int32(3)), (np.uint8(2), 3), np.array([3, 2])],
        ids=["int64-int32", "uint8-int", "ndarray"],
    )
    def test_candidate_numpy_integers_accepted(self, star_graph, candidates):
        result = greedy_maximize(
            star_graph, 2, ExactEstimator(), seed=0, candidate_vertices=candidates
        )
        assert result.seed_set == (2, 3)
        assert all(type(seed) is int for seed in result.seeds)

    def test_deterministic_given_seed(self, karate_uc01):
        a = greedy_maximize(karate_uc01, 4, RISEstimator(128), seed=42)
        b = greedy_maximize(karate_uc01, 4, RISEstimator(128), seed=42)
        assert a.seeds == b.seeds
        assert a.estimates == b.estimates

    def test_different_seeds_can_differ(self, karate_uc01):
        results = {
            greedy_maximize(karate_uc01, 1, RISEstimator(2), seed=s).seed_set
            for s in range(15)
        }
        # With only 2 RR sets, ties abound, so random tie-breaking must show up.
        assert len(results) > 1

    def test_accepts_random_source(self, star_graph):
        result = greedy_maximize(star_graph, 1, ExactEstimator(), seed=RandomSource(3))
        assert result.seed_set == (0,)


class TestTieBreaking:
    def test_ties_broken_uniformly_at_random(self, star_graph):
        # All leaves of a star are exactly tied for the second seed.
        chosen = []
        for seed in range(60):
            result = greedy_maximize(star_graph, 2, ExactEstimator(), seed=seed)
            second = result.seeds[1]
            chosen.append(second)
        assert set(chosen) <= {1, 2, 3, 4, 5}
        # At least three distinct leaves should appear across 60 random orders.
        assert len(set(chosen)) >= 3


class TestGreedyResult:
    def test_seed_set_is_sorted(self, two_hubs_graph):
        result = greedy_maximize(two_hubs_graph, 2, ExactEstimator(), seed=0)
        assert result.seed_set == tuple(sorted(result.seeds))

    def test_k_property(self, two_hubs_graph):
        result = greedy_maximize(two_hubs_graph, 2, ExactEstimator(), seed=0)
        assert result.k == 2

    def test_as_dict_contains_costs(self, karate_uc01):
        result = greedy_maximize(karate_uc01, 1, SnapshotEstimator(4), seed=0)
        payload = result.as_dict()
        assert payload["approach"] == "snapshot"
        assert payload["k"] == 1
        assert "traversal_vertices" in payload
        assert "sample_edges" in payload

    def test_estimates_monotone_nonincreasing_for_submodular(self, karate_uc01):
        result = greedy_maximize(karate_uc01, 6, RISEstimator(2048), seed=1)
        gains = list(result.estimates)
        for earlier, later in zip(gains, gains[1:]):
            assert later <= earlier + 1e-9
