"""Forward simulation of the independent cascade (IC) model (Section 2.2).

The IC process starts with the seed vertices active.  Each newly activated
vertex gets a single chance to activate each currently inactive out-neighbour
``v`` with probability ``p(u, v)``; the process stops when no new vertex is
activated.  The influence spread ``Inf(S)`` is the expected number of
activated vertices.

Traversal-cost convention (matches the paper's Appendix): simulating one
cascade examines every *activated* vertex (vertex cost) and every out-edge of
an activated vertex (edge cost), because each such edge receives a coin flip
regardless of the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .._validation import normalize_seed_set
from ..graphs.influence_graph import InfluenceGraph
from .costs import TraversalCost
from .frontier import first_hit, frontier_edges, use_scalar_frontier
from .random_source import RandomSource


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of one forward diffusion simulation (shared by IC and LT)."""

    activated: tuple[int, ...]
    num_activated: int

    @cached_property
    def _activated_set(self) -> frozenset[int]:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits, so repeated membership checks stay O(1).
        return frozenset(self.activated)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._activated_set


def simulate_cascade(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    rng: RandomSource | np.random.Generator,
    *,
    cost: TraversalCost | None = None,
) -> CascadeResult:
    """Run one forward IC cascade from ``seeds`` and return the activated set.

    Parameters
    ----------
    graph:
        The influence graph.
    seeds:
        Initially active vertices (must be distinct and in range).
    rng:
        Random source; one uniform draw is consumed per examined edge, in the
        order the cascade discovers them (the paper's Oneshot PRNG protocol).
    cost:
        Optional traversal-cost accumulator updated in place.
    """
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    active = np.zeros(graph.num_vertices, dtype=bool)
    slot = np.empty(graph.num_vertices, dtype=np.int64)
    return _cascade_kernel(graph.out_csr, seed_tuple, generator, active, slot, cost)


def _cascade_kernel(
    out_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    seed_tuple: tuple[int, ...],
    generator: np.random.Generator,
    active: np.ndarray,
    slot: np.ndarray,
    cost: TraversalCost | None,
) -> CascadeResult:
    """Whole-frontier vectorized IC cascade over forward CSR.

    One uniform vector is drawn per BFS level, covering the frontier's edges
    in the frontier's vertex-then-edge order — byte-identical PRNG stream
    consumption to the historical per-vertex loop (see
    :mod:`repro.diffusion.frontier` for the draw-order contract).  ``active``
    must be all-``False`` on entry (only activated entries are set, so batch
    callers can reset it cheaply); ``slot`` is integer scratch of length
    ``num_vertices``.
    """
    indptr, targets, probs = out_csr
    activated_order: list[int] = list(seed_tuple)
    # The frontier lives as a Python list; it only round-trips through numpy
    # on the (large) levels that take the vectorized path.
    frontier: list[int] = list(seed_tuple)
    for seed in frontier:
        active[seed] = True

    while frontier:
        if use_scalar_frontier(frontier):
            # Small frontier: the plain per-vertex loop beats the batched
            # gather's fixed overhead.  Identical draws either way.
            next_frontier: list[int] = []
            edges_scanned = 0
            for vertex in frontier:
                start, stop = indptr[vertex], indptr[vertex + 1]
                degree = stop - start
                if degree == 0:
                    continue
                edges_scanned += int(degree)
                draws = generator.random(degree)
                live = draws < probs[start:stop]
                for target in targets[start:stop][live].tolist():
                    if not active[target]:
                        active[target] = True
                        next_frontier.append(target)
            if cost is not None:
                cost.add_vertices(len(frontier))
                cost.add_edges(edges_scanned)
        else:
            frontier_array = np.asarray(frontier, dtype=np.int64)
            edge_indices, _, total = frontier_edges(indptr, frontier_array)
            if cost is not None:
                cost.add_vertices(len(frontier))
                cost.add_edges(total)
            if total == 0:
                break
            draws = generator.random(total)
            live_edges = edge_indices[draws < probs[edge_indices]]
            candidates = targets[live_edges]
            candidates = candidates[~active[candidates]]
            new_vertices = first_hit(candidates, slot)
            active[new_vertices] = True
            next_frontier = new_vertices.tolist()
        activated_order.extend(next_frontier)
        frontier = next_frontier

    return CascadeResult(tuple(activated_order), len(activated_order))


def simulate_cascades(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    count: int,
    rng: RandomSource | np.random.Generator,
    *,
    cost: TraversalCost | None = None,
    batch_mode: str | None = None,
) -> list[CascadeResult]:
    """Run ``count`` forward IC cascades from ``seeds`` in one batched call.

    The IC shorthand for
    :meth:`repro.diffusion.models.DiffusionModel.simulate_cascades`:
    byte-identical to calling :func:`simulate_cascade` ``count`` times on the
    same stream.  ``batch_mode="bitparallel"`` opts into the
    64-worlds-per-word mask kernel (own draw-order contract — see
    :mod:`repro.diffusion.bitparallel` — and activated vertices listed in
    ascending id, not activation order).
    """
    from .models import INDEPENDENT_CASCADE

    return INDEPENDENT_CASCADE.simulate_cascades(
        graph, seeds, count, rng, cost=cost, batch_mode=batch_mode
    )


def _simulate_cascades_batch(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    generators: Iterable[np.random.Generator],
    *,
    cost: TraversalCost | None = None,
) -> list[CascadeResult]:
    """Batched IC cascades, one per generator, with reused scratch buffers.

    Byte-identical to one :func:`simulate_cascade` call per generator — the
    batch only amortizes per-call overhead (one seed normalization, one CSR
    unpack, reused activation/scratch buffers; the ``active`` mask is reset
    by clearing only the activated entries, so small cascades on large graphs
    never pay an O(n) refill).
    """
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    out_csr = graph.out_csr
    active = np.zeros(graph.num_vertices, dtype=bool)
    slot = np.empty(graph.num_vertices, dtype=np.int64)
    results: list[CascadeResult] = []
    for generator in generators:
        result = _cascade_kernel(out_csr, seed_tuple, generator, active, slot, cost)
        active[list(result.activated)] = False
        results.append(result)
    return results


def simulate_spread(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    num_simulations: int,
    rng: RandomSource | np.random.Generator,
    *,
    cost: TraversalCost | None = None,
    batch_mode: str | None = None,
) -> float:
    """Average activated-vertex count over ``num_simulations`` cascades.

    This is the Oneshot estimator's Estimate body (Algorithm 3.2): an unbiased
    Monte-Carlo estimate of ``Inf(seeds)``, and the IC shorthand for
    :meth:`repro.diffusion.models.DiffusionModel.simulate_spread`.  With
    ``batch_mode="bitparallel"`` the counts come straight from the mask
    kernel's popcounts, skipping per-cascade result objects entirely.
    """
    from .models import INDEPENDENT_CASCADE

    return INDEPENDENT_CASCADE.simulate_spread(
        graph, seeds, num_simulations, rng, cost=cost, batch_mode=batch_mode
    )


def activation_probabilities(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    num_simulations: int,
    rng: RandomSource | np.random.Generator,
) -> np.ndarray:
    """Per-vertex empirical activation probabilities from repeated cascades.

    Returns an array of length ``n`` where entry ``v`` is the fraction of the
    ``num_simulations`` cascades in which ``v`` was activated.  Useful for
    diagnostics and for the viral-marketing example.
    """
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for result in simulate_cascades(graph, seeds, num_simulations, rng):
        counts[list(result.activated)] += 1
    return counts / num_simulations
