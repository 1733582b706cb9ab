"""Tests for the traversal-cost and sample-size accumulators."""

from __future__ import annotations

from repro.diffusion.costs import CostReport, SampleSize, TraversalCost


class TestTraversalCost:
    def test_starts_at_zero(self):
        cost = TraversalCost()
        assert cost.vertices == 0
        assert cost.edges == 0
        assert cost.total == 0

    def test_add(self):
        cost = TraversalCost()
        cost.add_vertices(3)
        cost.add_edges(7)
        cost.add_vertices()
        assert cost.vertices == 4
        assert cost.edges == 7
        assert cost.total == 11

    def test_merge(self):
        a = TraversalCost(1, 2)
        b = TraversalCost(10, 20)
        a.merge(b)
        assert (a.vertices, a.edges) == (11, 22)

    def test_addition_operator(self):
        total = TraversalCost(1, 2) + TraversalCost(3, 4)
        assert (total.vertices, total.edges) == (4, 6)

    def test_snapshot_is_independent(self):
        cost = TraversalCost(5, 5)
        frozen = cost.snapshot()
        cost.add_vertices(1)
        assert frozen.vertices == 5
        assert cost.vertices == 6


class TestSampleSize:
    def test_accumulation(self):
        size = SampleSize()
        size.add_vertices(4)
        size.add_edges(9)
        assert size.total == 13

    def test_merge_and_add(self):
        a = SampleSize(1, 2)
        a.merge(SampleSize(3, 4))
        assert (a.vertices, a.edges) == (4, 6)
        combined = a + SampleSize(1, 1)
        assert (combined.vertices, combined.edges) == (5, 7)


class TestCostReport:
    def test_as_dict(self):
        report = CostReport(TraversalCost(1, 2), SampleSize(3, 4))
        assert report.as_dict() == {
            "traversal_vertices": 1,
            "traversal_edges": 2,
            "sample_vertices": 3,
            "sample_edges": 4,
        }
