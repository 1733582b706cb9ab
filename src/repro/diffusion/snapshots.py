"""Live-edge snapshot sampling and forward reachability (Section 3.4).

A *snapshot* (random graph) ``G ~ G`` keeps each edge of the influence graph
independently with its probability.  Snapshot-type algorithms draw ``tau``
snapshots up front, store their live edges, and estimate the influence spread
of ``S`` as the average over snapshots of the number of vertices reachable
from ``S``.

Cost conventions (Table 8): generating a snapshot streams the edge list with
one coin flip per edge but performs *no graph traversal*, so it contributes to
sample size (edges stored) but not to traversal cost.  Computing a reachable
set is a BFS over live edges: every scanned vertex counts one vertex
examination and every scanned live out-edge counts one edge examination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._validation import normalize_seed_set
from ..graphs.influence_graph import InfluenceGraph
from .costs import SampleSize, TraversalCost
from .frontier import first_hit, frontier_edges, use_scalar_frontier
from .random_source import RandomSource


@dataclass(frozen=True)
class Snapshot:
    """One sampled live-edge graph in CSR form (targets only, probabilities dropped)."""

    num_vertices: int
    indptr: np.ndarray
    targets: np.ndarray

    @property
    def num_live_edges(self) -> int:
        """Number of live (kept) edges in this snapshot."""
        return int(self.targets.shape[0])

    def out_neighbors(self, vertex: int) -> np.ndarray:
        """Live out-neighbours of ``vertex`` in this snapshot."""
        return self.targets[self.indptr[vertex] : self.indptr[vertex + 1]]

    @cached_property
    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Reverse CSR ``(indptr, sources)`` of the live edges, built once.

        Computed lazily and cached on the instance (``cached_property`` writes
        into ``__dict__``, which the frozen dataclass permits), so every
        consumer that walks the snapshot backwards — the bottom-k sketches in
        :mod:`repro.graphs.sketches`, reverse traversals in examples — shares
        one CSR transpose instead of each rebuilding a Python list-of-lists.
        """
        counts = np.zeros(self.num_vertices, dtype=np.int64)
        np.add.at(counts, self.targets, 1)
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(self.targets, kind="stable")
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )[order]
        return indptr, sources


def snapshot_from_live_edges(
    num_vertices: int, live_sources: np.ndarray, live_targets: np.ndarray
) -> Snapshot:
    """Assemble a :class:`Snapshot` from an unordered live-edge list.

    The single place where live edges become forward CSR; both the IC edge
    filter (:func:`sample_snapshot`) and the LT parent-array conversion
    (:meth:`repro.diffusion.linear_threshold.LTSnapshot.to_snapshot`) build
    through it, so the two models cannot drift to different representations.
    """
    live_counts = np.zeros(num_vertices, dtype=np.int64)
    np.add.at(live_counts, live_sources, 1)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(live_counts, out=indptr[1:])
    order = np.argsort(live_sources, kind="stable")
    return Snapshot(
        num_vertices=num_vertices,
        indptr=indptr,
        targets=np.asarray(live_targets)[order].astype(np.int64, copy=True),
    )


def sample_snapshot(
    graph: InfluenceGraph,
    rng: RandomSource | np.random.Generator,
    *,
    sample_size: SampleSize | None = None,
) -> Snapshot:
    """Draw one snapshot ``G ~ G`` by keeping each edge with its probability."""
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    indptr, targets, probs = graph.out_csr
    draws = generator.random(graph.num_edges)
    live_mask = draws < probs
    # Edge i in forward CSR order belongs to the source vertex whose indptr
    # range contains i; np.repeat reconstructs that source column cheaply.
    sources = np.repeat(np.arange(graph.num_vertices), np.diff(indptr))
    snapshot = snapshot_from_live_edges(
        graph.num_vertices, sources[live_mask], targets[live_mask]
    )
    if sample_size is not None:
        sample_size.add_edges(snapshot.num_live_edges)
    return snapshot


def sample_snapshots(
    graph: InfluenceGraph,
    count: int,
    rng: RandomSource | np.random.Generator,
    *,
    sample_size: SampleSize | None = None,
    jobs: int | None = None,
    telemetry=None,
) -> list[Snapshot]:
    """Draw ``count`` independent snapshots.

    Defaults to the historical sequential single-stream draw.  Passing
    ``jobs`` opts into the runtime's split-stream contract
    (see :mod:`repro.runtime`): snapshot ``i`` is drawn from a child stream
    of ``(rng, i)``, so the pool is bit-identical for any worker count or
    chunk size.  The split-stream dispatch lives in one place —
    :meth:`repro.diffusion.models.DiffusionModel.sample_snapshots` — and
    this function is the IC shorthand for it.
    """
    from .models import INDEPENDENT_CASCADE

    return INDEPENDENT_CASCADE.sample_snapshots(
        graph,
        count,
        rng,
        sample_size=sample_size,
        jobs=jobs,
        telemetry=telemetry,
    )


def reachable_set(
    snapshot: Snapshot,
    seeds: tuple[int, ...] | list[int] | set[int],
    *,
    cost: TraversalCost | None = None,
    blocked: np.ndarray | None = None,
) -> set[int]:
    """Vertices reachable from ``seeds`` in ``snapshot`` (including the seeds).

    ``blocked`` is an optional boolean mask of vertices to treat as removed,
    as in the Snapshot graph-reduction update (Section 3.4.3), which excludes
    vertices already reachable from previously chosen seeds.  (The Snapshot
    estimator itself runs 64 snapshots per word through
    :class:`repro.diffusion.snapshot_lanes.SnapshotLanes`.)
    """
    return set(reachable_vertices(snapshot, seeds, cost=cost, blocked=blocked))


def reachability_scratch(num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Reusable ``(visited, slot)`` scratch pair for reachability queries.

    Callers that issue many queries against snapshots of the same graph
    (descendant counting, the bottom-k sketches) create one pair and pass it as ``scratch=``; the query then runs in time
    proportional to the reached set instead of paying an O(num_vertices)
    allocation and reset per call.  Not safe to share across threads.
    """
    return (
        np.zeros(num_vertices, dtype=bool),
        np.empty(num_vertices, dtype=np.int64),
    )


def reachable_vertices(
    snapshot: Snapshot,
    seeds: tuple[int, ...] | list[int] | set[int],
    *,
    cost: TraversalCost | None = None,
    blocked: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[int]:
    """Vertices reachable from ``seeds``, in BFS discovery order.

    The list form of :func:`reachable_set`.  With ``scratch`` (see
    :func:`reachability_scratch`) the visited marks are cleared again before
    returning — touching only the reached entries — so repeated queries do no
    per-call O(num_vertices) work.
    """
    seed_tuple = normalize_seed_set(seeds, snapshot.num_vertices)
    if scratch is None:
        visited = np.zeros(snapshot.num_vertices, dtype=bool)
        slot = np.empty(snapshot.num_vertices, dtype=np.int64)
        return _reachable_into(snapshot, seed_tuple, visited, slot, cost, blocked)
    visited, slot = scratch
    reached = _reachable_into(snapshot, seed_tuple, visited, slot, cost, blocked)
    visited[reached] = False
    return reached


def reachable_mask(
    snapshot: Snapshot,
    seeds: tuple[int, ...] | list[int] | set[int],
    *,
    cost: TraversalCost | None = None,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean reachability mask from ``seeds`` (the array form of
    :func:`reachable_set`)."""
    visited = np.zeros(snapshot.num_vertices, dtype=bool)
    slot = np.empty(snapshot.num_vertices, dtype=np.int64)
    _reachable_into(
        snapshot,
        normalize_seed_set(seeds, snapshot.num_vertices),
        visited,
        slot,
        cost,
        blocked,
    )
    return visited


def _reachable_into(
    snapshot: Snapshot,
    seed_tuple: tuple[int, ...],
    visited: np.ndarray,
    slot: np.ndarray,
    cost: TraversalCost | None,
    blocked: np.ndarray | None,
) -> list[int]:
    """Whole-frontier BFS over the live-edge CSR, marking ``visited``.

    Each level scans all frontier out-edges with one gather, filters
    blocked/visited targets, and first-hit-deduplicates the next frontier
    (scalar per-vertex expansion below :data:`SCALAR_FRONTIER_LIMIT`).  Cost
    totals are identical to the historical per-vertex loop (one vertex
    examination per expanded vertex, one edge examination per scanned live
    out-edge).  ``visited`` must be ``False`` everywhere on entry; only
    reached entries are set, and the returned discovery-order list names
    exactly those entries.
    """
    frontier: list[int] = (
        [seed for seed in seed_tuple if not blocked[seed]]
        if blocked is not None
        else list(seed_tuple)
    )
    for seed in frontier:
        visited[seed] = True
    reached: list[int] = list(frontier)
    indptr = snapshot.indptr
    targets = snapshot.targets
    while frontier:
        if use_scalar_frontier(frontier):
            # Small frontier: plain per-vertex expansion beats the batched
            # gather's fixed overhead (no randomness involved here at all).
            next_frontier: list[int] = []
            edges_scanned = 0
            for vertex in frontier:
                row = targets[indptr[vertex] : indptr[vertex + 1]]
                edges_scanned += int(row.shape[0])
                for target in row.tolist():
                    if blocked is not None and blocked[target]:
                        continue
                    if not visited[target]:
                        visited[target] = True
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
            candidates = targets[edge_indices]
            if blocked is not None:
                candidates = candidates[~blocked[candidates]]
            candidates = candidates[~visited[candidates]]
            new_vertices = first_hit(candidates, slot)
            visited[new_vertices] = True
            next_frontier = new_vertices.tolist()
        reached.extend(next_frontier)
        frontier = next_frontier
    return reached


def reachable_count(
    snapshot: Snapshot,
    seeds: tuple[int, ...] | list[int] | set[int],
    *,
    cost: TraversalCost | None = None,
    blocked: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Number of vertices reachable from ``seeds`` in ``snapshot``.

    Pass ``scratch`` (see :func:`reachability_scratch`) when issuing many
    counts against snapshots of the same graph.
    """
    return len(
        reachable_vertices(snapshot, seeds, cost=cost, blocked=blocked, scratch=scratch)
    )


def single_source_reachability(
    snapshot: Snapshot, *, cost: TraversalCost | None = None
) -> np.ndarray:
    """Reachable-set size from every single vertex (descendant counting).

    This is the quadratic-in-the-worst-case computation the paper notes is the
    bottleneck of Snapshot's first greedy iteration.  Returned as an integer
    array of length ``num_vertices``.
    """
    counts = np.zeros(snapshot.num_vertices, dtype=np.int64)
    scratch = reachability_scratch(snapshot.num_vertices)
    for vertex in range(snapshot.num_vertices):
        counts[vertex] = reachable_count(snapshot, (vertex,), cost=cost, scratch=scratch)
    return counts
