"""Live-edge snapshot sampling (Section 3.4).

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
:class:`repro.diffusion.snapshot_lanes.SnapshotLanes` answers those queries,
64 stored snapshots per word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.influence_graph import InfluenceGraph
from .costs import SampleSize
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

