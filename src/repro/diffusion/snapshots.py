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


def reachable_vertices(
    snapshot: Snapshot,
    seeds: tuple[int, ...] | list[int] | set[int],
    *,
    cost: TraversalCost | None = None,
    blocked: np.ndarray | None = None,
) -> list[int]:
    """Vertices reachable from ``seeds``, in BFS discovery order.

    The list form of :func:`reachable_set`: a whole-frontier BFS over the
    live-edge CSR.  Each level scans all frontier out-edges with one gather,
    filters blocked/visited targets, and first-hit-deduplicates the next
    frontier (scalar per-vertex expansion below
    :data:`SCALAR_FRONTIER_LIMIT`).  Cost totals are identical to the
    historical per-vertex loop (one vertex examination per expanded vertex,
    one edge examination per scanned live out-edge).
    """
    seed_tuple = normalize_seed_set(seeds, snapshot.num_vertices)
    visited = np.zeros(snapshot.num_vertices, dtype=bool)
    slot = np.empty(snapshot.num_vertices, dtype=np.int64)
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
) -> int:
    """Number of vertices reachable from ``seeds`` in ``snapshot``."""
    return len(reachable_vertices(snapshot, seeds, cost=cost, blocked=blocked))
