"""Tests for the worst-case sample-number bound formulas."""

from __future__ import annotations

import pytest

from repro.algorithms.bounds import (
    oneshot_sample_bound,
    ris_sample_bound,
    theoretical_cost_ratios,
)
from repro.exceptions import InvalidParameterError


class TestOneshotBound:
    def test_reproduces_paper_magnitude_for_wiki_vote(self):
        # Section 5.2.1: on Wiki-Vote (uc0.01, k=4) the bound with
        # eps=0.05, delta=0.01 is about 1.0e8 (with OPT_k around 2.7).
        bound = oneshot_sample_bound(0.05, 0.01, 7115, 4, optimal_spread=2.7)
        assert bound == pytest.approx(1.0e8, rel=0.3)

    def test_decreases_with_larger_optimum(self):
        loose = oneshot_sample_bound(0.1, 0.05, 1000, 2, optimal_spread=5.0)
        tight = oneshot_sample_bound(0.1, 0.05, 1000, 2, optimal_spread=50.0)
        assert tight < loose

    def test_increases_with_k(self):
        small_k = oneshot_sample_bound(0.1, 0.05, 1000, 1, optimal_spread=5.0)
        large_k = oneshot_sample_bound(0.1, 0.05, 1000, 8, optimal_spread=5.0)
        assert large_k > small_k

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            oneshot_sample_bound(0.0, 0.01, 100, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            oneshot_sample_bound(0.1, 1.5, 100, 1, 1.0)
        with pytest.raises(ValueError):
            oneshot_sample_bound(0.1, 0.1, 100, 1, 0.0)


class TestRISBounds:
    def test_smaller_than_oneshot_bound(self):
        # The RIS bound drops the extra factor of k relative to Oneshot.
        oneshot = oneshot_sample_bound(0.05, 0.01, 7115, 4, optimal_spread=2.7)
        ris = ris_sample_bound(0.05, 0.01, 7115, 4, optimal_spread=2.7)
        assert ris < oneshot

    def test_invalid_optimal_spread(self):
        with pytest.raises(ValueError):
            ris_sample_bound(0.1, 0.1, 100, 1, -1.0)


class TestTheoreticalCostRatios:
    def test_table1_ratios(self):
        ratios = theoretical_cost_ratios(1000, 10000, expected_live_edges=1000.0)
        assert ratios["oneshot_vertex"] == 1.0
        assert ratios["snapshot_vertex"] == 1.0
        assert ratios["ris_vertex"] == pytest.approx(1 / 1000)
        assert ratios["snapshot_edge"] == pytest.approx(0.1)
        assert ratios["ris_edge"] == pytest.approx(1 / 1000)

    def test_invalid_live_edges(self):
        with pytest.raises(ValueError):
            theoretical_cost_ratios(10, 10, 0.0)
