"""Linear threshold (LT) diffusion model (Granovetter; Kempe et al. 2003).

The paper's experiments use the independent cascade model, but the LT model
is the other classical diffusion model of Kempe et al. and every algorithmic
approach studied by the paper applies to it unchanged, because LT also admits
a live-edge (random-graph) interpretation:

    each vertex v independently selects **at most one** incoming edge, picking
    edge (u, v) with probability p(u, v) and no edge with probability
    1 - sum_u p(u, v); the spread of S equals the expected number of vertices
    reachable from S over the selected edges.

This module provides the LT counterparts of the IC primitives: forward
threshold simulation, live-edge snapshot sampling, reverse-reachable set
generation, and exact spread for tiny graphs.  All of them return the
*shared* result types (:class:`~repro.diffusion.cascade.CascadeResult`,
:class:`~repro.diffusion.reverse.RRSet`, and — via
:meth:`LTSnapshot.to_snapshot` — the CSR
:class:`~repro.diffusion.snapshots.Snapshot`), so the estimators in
:mod:`repro.algorithms` consume LT samples through the exact same interfaces
as IC samples.  The :class:`~repro.diffusion.models.LinearThreshold` model in
:mod:`repro.diffusion.models` wraps these functions behind the
``DiffusionModel`` protocol, which is how the experiment harness and the CLI
reach them (an extension beyond the paper's scope, documented in
``docs/DESIGN.md``).

Validity requirement: the LT model needs ``sum_u p(u, v) <= 1`` for every
vertex ``v``.  The paper's ``iwc`` assignment satisfies this with equality;
``uc0.01`` satisfies it on low-in-degree graphs; :func:`validate_lt_weights`
checks it explicitly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .._validation import normalize_seed_set, require_vertex
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from .cascade import CascadeResult
from .costs import SampleSize, TraversalCost
from .random_source import RandomSource
from .reverse import RRSet
from .snapshots import Snapshot, snapshot_from_live_edges

#: Tolerance when checking that incoming weights sum to at most one.
WEIGHT_TOLERANCE = 1e-9


def validate_lt_weights(graph: InfluenceGraph) -> None:
    """Raise unless every vertex's incoming probabilities sum to at most 1.

    Fully vectorised (one pass over the reverse CSR), so estimators can
    afford to re-validate on every Build without a measurable cost.
    """
    indptr, _, probs = graph.in_csr
    if probs.size == 0:
        return
    totals = np.zeros(graph.num_vertices, dtype=np.float64)
    nonempty = np.diff(indptr) > 0
    # Consecutive non-empty segment starts are strictly increasing and span
    # exactly one vertex's in-edges each, so reduceat sums per vertex without
    # accumulating error across the whole edge array.
    totals[nonempty] = np.add.reduceat(probs, indptr[:-1][nonempty])
    worst = int(np.argmax(totals))
    if totals[worst] > 1.0 + WEIGHT_TOLERANCE:
        raise InvalidParameterError(
            f"LT model requires sum of incoming weights <= 1; vertex {worst} "
            f"has {float(totals[worst]):.6f}"
        )


#: LT cascades share the IC result type; the alias is kept for back-compat.
LTCascadeResult = CascadeResult


def simulate_lt_cascade(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    rng: RandomSource | np.random.Generator,
    *,
    cost: TraversalCost | None = None,
) -> CascadeResult:
    """Run one forward LT cascade using per-vertex random thresholds.

    Each non-seed vertex draws a uniform threshold; an inactive vertex becomes
    active once the total weight of its active in-neighbours reaches the
    threshold.  Traversal cost follows the IC convention: every activated
    vertex counts one vertex examination, and each of its out-edges counts one
    edge examination (the weight pushed to each out-neighbour).
    """
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    thresholds = generator.random(graph.num_vertices)
    accumulated = np.zeros(graph.num_vertices, dtype=np.float64)
    active = np.zeros(graph.num_vertices, dtype=bool)

    activated_order: list[int] = []
    frontier: list[int] = []
    for seed in seed_tuple:
        active[seed] = True
        activated_order.append(seed)
        frontier.append(seed)

    indptr, targets, probs = graph.out_csr
    while frontier:
        next_frontier: list[int] = []
        for vertex in frontier:
            if cost is not None:
                cost.add_vertices(1)
            start, stop = indptr[vertex], indptr[vertex + 1]
            if cost is not None and stop > start:
                cost.add_edges(int(stop - start))
            for offset in range(start, stop):
                target = int(targets[offset])
                if active[target]:
                    continue
                accumulated[target] += probs[offset]
                if accumulated[target] >= thresholds[target]:
                    active[target] = True
                    activated_order.append(target)
                    next_frontier.append(target)
        frontier = next_frontier
    return CascadeResult(tuple(activated_order), len(activated_order))


@dataclass(frozen=True)
class LTSnapshot:
    """One LT live-edge graph: each vertex keeps at most one incoming edge.

    Stored as a parent array: ``parent[v]`` is the selected in-neighbour of
    ``v`` or ``-1`` when no edge was selected.  Forward reachability runs on
    the CSR form that :meth:`to_snapshot` builds.
    """

    parent: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return int(self.parent.shape[0])

    @property
    def num_live_edges(self) -> int:
        """Number of selected (live) edges."""
        return int(np.count_nonzero(self.parent >= 0))

    def to_snapshot(self) -> Snapshot:
        """Convert to the shared forward-CSR :class:`Snapshot` representation.

        The live edges are ``(parent[v], v)`` for every vertex with a selected
        parent; re-expressed as a forward CSR, snapshot reachability, blocked
        masks, and the Snapshot estimator consume LT live-edge graphs exactly
        as they consume IC ones.
        """
        mask = self.parent >= 0
        return snapshot_from_live_edges(
            self.num_vertices, self.parent[mask], np.nonzero(mask)[0].astype(np.int64)
        )


def sample_lt_snapshot(
    graph: InfluenceGraph,
    rng: RandomSource | np.random.Generator,
    *,
    sample_size: SampleSize | None = None,
) -> LTSnapshot:
    """Draw one LT live-edge graph (at most one in-edge per vertex).

    Each vertex with in-degree > 0, in id order, takes one uniform draw and
    keeps the first in-edge whose running probability sum exceeds it.  The
    draws come from one ``random(k)`` call over those ``k`` vertices, which
    consumes the stream exactly as ``k`` scalar ``random()`` calls would.
    """
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    row_sources, row_probs = graph.in_rows
    choosers = np.flatnonzero(graph.in_degrees()).tolist()
    draws = generator.random(len(choosers)).tolist()
    parent = [-1] * graph.num_vertices
    for vertex, draw in zip(choosers, draws):
        cumulative = 0.0
        for source, probability in zip(row_sources[vertex], row_probs[vertex]):
            cumulative += probability
            if draw < cumulative:
                parent[vertex] = source
                break
    snapshot = LTSnapshot(np.array(parent, dtype=np.int64))
    if sample_size is not None:
        sample_size.add_edges(snapshot.num_live_edges)
    return snapshot


#: LT RR sets share the IC RR-set type (RRSetCollection works for both);
#: the alias is kept for back-compat.
LTRRSet = RRSet


def sample_lt_rr_set(
    graph: InfluenceGraph,
    rng: RandomSource | np.random.Generator,
    *,
    target: int | None = None,
    cost: TraversalCost | None = None,
    sample_size: SampleSize | None = None,
) -> RRSet:
    """Generate one LT RR set: walk backwards over selected in-edges.

    Under LT, the reverse of the live-edge selection is a random walk: from
    the current vertex, select one in-neighbour with probability proportional
    to the edge weight (or stop with the residual probability), and repeat
    until stopping or revisiting a vertex (Tang et al. 2014, IMM).
    """
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    if graph.num_vertices == 0:
        raise InvalidParameterError("cannot sample an RR set from an empty graph")
    if target is None:
        current = int(generator.integers(graph.num_vertices))
    else:
        current = require_vertex(target, graph.num_vertices, name="target")
    visited: set[int] = {current}
    weight = 0
    start_target = current
    while True:
        if cost is not None:
            cost.add_vertices(1)
        sources = graph.in_neighbors(current)
        if sources.shape[0] == 0:
            break
        probabilities = graph.in_probabilities(current)
        weight += int(sources.shape[0])
        if cost is not None:
            cost.add_edges(int(sources.shape[0]))
        draw = float(generator.random())
        cumulative = 0.0
        selected: int | None = None
        for offset in range(sources.shape[0]):
            cumulative += float(probabilities[offset])
            if draw < cumulative:
                selected = int(sources[offset])
                break
        if selected is None or selected in visited:
            break
        visited.add(selected)
        current = selected
    rr_set = RRSet(target=start_target, vertices=frozenset(visited), weight=weight)
    if sample_size is not None:
        sample_size.add_vertices(rr_set.size)
    return rr_set


def exact_lt_spread(
    graph: InfluenceGraph, seeds: tuple[int, ...] | list[int] | set[int]
) -> float:
    """Exact LT spread by enumerating per-vertex in-edge selections.

    Each vertex independently selects one in-edge or none, so the number of
    live-edge realizations is ``prod_v (d-(v) + 1)``; tiny graphs only.
    """
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    validate_lt_weights(graph)
    choices: list[list[tuple[int | None, float]]] = []
    total_realizations = 1
    for vertex in graph.vertices:
        sources = graph.in_neighbors(vertex).tolist()
        probabilities = graph.in_probabilities(vertex).tolist()
        options: list[tuple[int | None, float]] = [
            (int(source), float(p)) for source, p in zip(sources, probabilities)
        ]
        options.append((None, max(0.0, 1.0 - sum(probabilities))))
        choices.append(options)
        total_realizations *= len(options)
        if total_realizations > 2_000_000:
            raise InvalidParameterError(
                "exact_lt_spread supports only tiny graphs "
                f"(would enumerate more than {total_realizations} realizations)"
            )

    def recurse(vertex: int, parent: list[int | None], probability: float) -> float:
        if probability == 0.0:
            return 0.0
        if vertex == graph.num_vertices:
            adjacency: list[list[int]] = [[] for _ in range(graph.num_vertices)]
            for child, chosen in enumerate(parent):
                if chosen is not None:
                    adjacency[chosen].append(child)
            visited = set(seed_tuple)
            queue = deque(seed_tuple)
            while queue:
                u = queue.popleft()
                for child in adjacency[u]:
                    if child not in visited:
                        visited.add(child)
                        queue.append(child)
            return probability * len(visited)
        total = 0.0
        for chosen, option_probability in choices[vertex]:
            parent.append(chosen)
            total += recurse(vertex + 1, parent, probability * option_probability)
            parent.pop()
        return total

    return recurse(0, [], 1.0)
