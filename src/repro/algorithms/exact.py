"""Exact and exact-oracle optimizers for tiny instances.

Two tools for validating the randomized algorithms:

* :func:`exhaustive_optimum` — enumerate all ``C(n, k)`` seed sets and return
  the one with the largest *exact* spread (live-edge enumeration), feasible
  only for tiny graphs.
* :class:`ExactEstimator` — an :class:`InfluenceEstimator` whose Estimate
  returns the exact spread, so running the greedy framework on it yields the
  paper's "Exact Greedy" reference solution on tiny fixtures.
"""

from __future__ import annotations

from .._validation import require_vertex
from ..diffusion.exact import exact_optimal_seed_set, exact_spread
from ..diffusion.random_source import RandomSource
from ..graphs.influence_graph import InfluenceGraph
from .framework import InfluenceEstimator


def exhaustive_optimum(graph: InfluenceGraph, k: int) -> tuple[tuple[int, ...], float]:
    """Spread-optimal seed set of size ``k`` by brute force (tiny graphs only)."""
    return exact_optimal_seed_set(graph, k)


class ExactEstimator(InfluenceEstimator):
    """Influence estimator backed by exact live-edge enumeration.

    The exact influence function is monotone and submodular (Kempe et al.),
    so greedy over this estimator realises the classical ``1 - 1/e``
    guarantee; tests use it as the reference "Exact Greedy".
    """

    approach = "exact"
    is_submodular = True

    def __init__(self) -> None:
        super().__init__(1)

    def build(self, graph: InfluenceGraph, rng: RandomSource) -> None:
        del rng
        self._reset_accounting(graph)

    def estimate(self, current_seeds: tuple[int, ...], vertex: int) -> float:
        return exact_spread(self.graph, tuple(current_seeds) + (vertex,))

    def update(self, chosen_vertex: int) -> None:
        require_vertex(chosen_vertex, self.graph.num_vertices)
