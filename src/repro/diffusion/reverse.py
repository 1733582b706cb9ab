"""Reverse-reachable (RR) set generation (Section 3.5, Definition 3.1).

An RR set for a target ``z`` is the set of vertices that can reach ``z`` in a
random live-edge graph ``G ~ G``; an RR set (without a stated target) uses a
uniformly random target.  The fundamental identity is

    Pr[R ∩ S ≠ ∅] = Inf(S) / n,

so influential vertices appear in RR sets frequently and influence
maximization reduces to maximum coverage over a collection of RR sets.

Generation is a *reverse* breadth-first search from the target: when a vertex
``v`` enters the RR set, each of its in-edges ``(u, v)`` is examined with one
coin flip, and ``u`` joins the set if the flip succeeds and ``u`` is new.

Cost conventions (Table 1 / Table 8): picking the target examines one vertex;
every vertex added to the RR set counts one vertex examination; every in-edge
examined counts one edge examination.  The RR set's *weight* is the sum of
in-degrees of its members (the number of coin flips), and its *size* (number
of vertices) is what RIS stores, so sample size accumulates vertices.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .._validation import normalize_seed_set, require_vertex
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import CsrRows, InfluenceGraph
from .costs import SampleSize, TraversalCost
from .frontier import first_hit, frontier_edges, use_scalar_frontier
from .random_source import RandomSource


@dataclass(frozen=True)
class RRSet:
    """One reverse-reachable set."""

    target: int
    vertices: frozenset[int]
    weight: int

    @property
    def size(self) -> int:
        """Number of vertices in the RR set."""
        return len(self.vertices)

    def intersects(self, seed_set: set[int] | frozenset[int] | tuple[int, ...]) -> bool:
        """Whether the RR set shares a vertex with ``seed_set``."""
        return not self.vertices.isdisjoint(seed_set)


def sample_rr_set(
    graph: InfluenceGraph,
    rng: RandomSource | np.random.Generator,
    *,
    target: int | None = None,
    cost: TraversalCost | None = None,
    sample_size: SampleSize | None = None,
) -> RRSet:
    """Generate one RR set by reverse BFS with per-edge coin flips.

    Parameters
    ----------
    target:
        Fixed target vertex; when ``None`` a uniformly random target is drawn
        (the standard RR-set definition).
    cost, sample_size:
        Optional accumulators updated in place.
    """
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    if graph.num_vertices == 0:
        raise InvalidParameterError("cannot sample an RR set from an empty graph")
    if target is None:
        chosen_target = int(generator.integers(graph.num_vertices))
    else:
        chosen_target = require_vertex(target, graph.num_vertices, name="target")
    visited_stamp = array("q", bytes(8 * graph.num_vertices))
    slot = np.empty(graph.num_vertices, dtype=np.int64)
    rr_set = _rr_kernel(
        graph.in_rows, graph.in_csr, chosen_target, generator, visited_stamp, 1, slot
    )
    if cost is not None:
        cost.add_vertices(rr_set.size)
        cost.add_edges(rr_set.weight)
    if sample_size is not None:
        sample_size.add_vertices(rr_set.size)
    return rr_set


def _rr_kernel(
    in_rows: CsrRows,
    in_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    chosen_target: int,
    generator: np.random.Generator,
    visited_stamp: array,
    stamp: int,
    slot: np.ndarray,
) -> RRSet:
    """Hybrid whole-frontier reverse BFS over the in-edges.

    The FIFO queue of the historical loop is exactly level-order BFS, so one
    uniform vector per level — covering the frontier's in-edges in the same
    vertex-then-edge order — consumes the PRNG stream byte-for-byte
    identically (see :mod:`repro.diffusion.frontier`).  Small levels walk
    the Python-list ``in_rows``; large ones gather over ``in_csr`` with
    numpy.  ``visited_stamp`` is an ``array('q')`` marking visited vertices
    with ``stamp``; batch callers bump ``stamp`` per RR set instead of
    clearing it.  ``slot`` is integer scratch of length ``num_vertices``.
    Every member is expanded once, so the set's traversal cost is its size
    in vertices and its weight in edges.
    """
    row_sources, row_probs = in_rows
    visited_stamp[chosen_target] = stamp
    members: list[int] = [chosen_target]
    frontier: list[int] = [chosen_target]
    weight = 0
    while frontier:
        if use_scalar_frontier(frontier):
            total = 0
            for vertex in frontier:
                total += len(row_sources[vertex])
            if total == 0:
                break
            weight += total
            # zip takes the rows first, so a row's end never consumes a draw.
            draws = iter(generator.random(total).tolist())
            next_frontier: list[int] = []
            for vertex in frontier:
                for source, probability, draw in zip(
                    row_sources[vertex], row_probs[vertex], draws
                ):
                    if draw < probability and visited_stamp[source] != stamp:
                        visited_stamp[source] = stamp
                        next_frontier.append(source)
        else:
            indptr, sources, probs = in_csr
            frontier_array = np.asarray(frontier, dtype=np.int64)
            edge_indices, _, total = frontier_edges(indptr, frontier_array)
            if total == 0:
                break
            weight += total
            stamp_view = np.frombuffer(visited_stamp, dtype=np.int64)
            draws = generator.random(total)
            live_edges = edge_indices[draws < probs[edge_indices]]
            candidates = sources[live_edges]
            candidates = candidates[stamp_view[candidates] != stamp]
            new_vertices = first_hit(candidates, slot)
            stamp_view[new_vertices] = stamp
            next_frontier = new_vertices.tolist()
        members.extend(next_frontier)
        frontier = next_frontier

    return RRSet(target=chosen_target, vertices=frozenset(members), weight=weight)


def sample_rr_sets(
    graph: InfluenceGraph,
    count: int,
    rng: RandomSource | np.random.Generator,
    *,
    cost: TraversalCost | None = None,
    sample_size: SampleSize | None = None,
    jobs: int | None = None,
    telemetry=None,
    batch_mode: str | None = None,
) -> list[RRSet]:
    """Generate ``count`` independent RR sets.

    With ``jobs=None`` (the default), all sets are drawn sequentially from
    ``rng``'s single stream — the historical behaviour.  Passing ``jobs`` (1
    or more) switches to the runtime's split-stream contract: RR set ``i`` is
    drawn from a child stream derived from ``(rng, i)``, so the collection is
    bit-identical for any worker count or chunking (``rng`` must then be an ``int``,
    ``SeedSequence``, or ``RandomSource``).  Cost accumulators are merged in
    chunk order, keeping their totals exact.  ``batch_mode="bitparallel"``
    generates the sets 64 worlds per word (own draw-order contract; under
    ``jobs`` the split-stream task unit becomes the word index).

    The split-stream dispatch lives in one place —
    :meth:`repro.diffusion.models.DiffusionModel.sample_rr_sets` — and this
    function is the IC shorthand for it.
    """
    from .models import INDEPENDENT_CASCADE

    return INDEPENDENT_CASCADE.sample_rr_sets(
        graph,
        count,
        rng,
        cost=cost,
        sample_size=sample_size,
        jobs=jobs,
        telemetry=telemetry,
        batch_mode=batch_mode,
    )


def _sample_rr_sets_batch(
    graph: InfluenceGraph,
    generators: Iterable[np.random.Generator],
    *,
    cost: TraversalCost | None = None,
    sample_size: SampleSize | None = None,
) -> list[RRSet]:
    """Batched RR-set generation, one set per generator, with reused scratch buffers.

    Byte-identical to one :func:`sample_rr_set` call per generator (one shared
    stream repeated, or one stream per set — the runtime chunk workers'
    form).  The batch amortizes per-call overhead: one row/CSR unpack, and
    shared visited/scratch arrays — the visited array is never cleared, each
    RR set marks it with a fresh stamp value.  Sizes and weights are summed
    in local ints and added to the accumulators once.
    """
    if graph.num_vertices == 0:
        raise InvalidParameterError("cannot sample an RR set from an empty graph")
    in_rows = graph.in_rows
    in_csr = graph.in_csr
    num_vertices = graph.num_vertices
    visited_stamp = array("q", bytes(8 * num_vertices))
    slot = np.empty(num_vertices, dtype=np.int64)
    rr_sets: list[RRSet] = []
    total_size = total_weight = 0
    for stamp, generator in enumerate(generators, start=1):
        chosen_target = int(generator.integers(num_vertices))
        rr_set = _rr_kernel(in_rows, in_csr, chosen_target, generator, visited_stamp, stamp, slot)
        total_size += rr_set.size
        total_weight += rr_set.weight
        rr_sets.append(rr_set)
    if cost is not None:
        cost.add_vertices(total_size)
        cost.add_edges(total_weight)
    if sample_size is not None:
        sample_size.add_vertices(total_size)
    return rr_sets


class RRSetCollection:
    """A collection of RR sets with an inverted vertex -> set-index index.

    The inverted index makes both coverage counting (Estimate) and covered-set
    removal (Update) proportional to the number of affected sets rather than
    to the whole collection, which is how practical RIS implementations work.
    """

    def __init__(self, rr_sets: list[RRSet], num_vertices: int) -> None:
        self._rr_sets = list(rr_sets)
        self._num_vertices = int(num_vertices)
        self._alive = np.ones(len(self._rr_sets), dtype=bool)
        self._coverage = np.zeros(num_vertices, dtype=np.int64)
        self._index: list[list[int]] = [[] for _ in range(num_vertices)]
        for set_index, rr_set in enumerate(self._rr_sets):
            for vertex in rr_set.vertices:
                self._index[vertex].append(set_index)
                self._coverage[vertex] += 1

    @classmethod
    def from_sampling(
        cls,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        model: "str | DiffusionModel | None" = None,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        batch_mode: str | None = None,
    ) -> "RRSetCollection":
        """Sample ``count`` RR sets and build the indexed collection directly.

        The batch entry point behind :meth:`RISEstimator.build
        <repro.algorithms.ris.RISEstimator.build>`: samples go through the
        model's batched generator (buffer-reusing sequential kernel by
        default, the runtime's split-stream chunks with ``jobs``,
        the 64-worlds-per-word kernel with ``batch_mode="bitparallel"``) and
        feed the inverted index without an intermediate caller-side pass.
        """
        from .models import resolve_model

        rr_sets = resolve_model(model).sample_rr_sets(
            graph,
            count,
            rng,
            cost=cost,
            sample_size=sample_size,
            jobs=jobs,
            batch_mode=batch_mode,
        )
        return cls(rr_sets, graph.num_vertices)

    # ------------------------------------------------------------------ #
    @property
    def num_total(self) -> int:
        """Total number of RR sets originally inserted."""
        return len(self._rr_sets)

    @property
    def num_alive(self) -> int:
        """Number of RR sets not yet removed by Update."""
        return int(self._alive.sum())

    @property
    def total_size(self) -> int:
        """Total number of stored vertices over all RR sets (the RIS sample size)."""
        return sum(rr_set.size for rr_set in self._rr_sets)

    @property
    def total_weight(self) -> int:
        """Total weight (coin flips spent) over all RR sets."""
        return sum(rr_set.weight for rr_set in self._rr_sets)

    def coverage(self, vertex: int) -> int:
        """Number of alive RR sets containing ``vertex``."""
        require_vertex(vertex, self._num_vertices)
        return int(self._coverage[vertex])

    def fraction_covered(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> float:
        """``F_R(S)``: fraction of *all* RR sets intersecting ``seed_set``.

        Matches the paper's definition over the full collection (removal by
        Update is an implementation detail of marginal-coverage queries and
        does not change this quantity's meaning for a fixed collection).
        The seed set is validated like every other seed-set query.
        """
        seed_frozen = frozenset(normalize_seed_set(seed_set, self._num_vertices))
        if not self._rr_sets:
            return 0.0
        hit = sum(1 for rr_set in self._rr_sets if rr_set.intersects(seed_frozen))
        return hit / len(self._rr_sets)

    def remove_covered_by(self, vertex: int) -> int:
        """Remove all alive RR sets containing ``vertex`` (RIS Update).

        Returns the number of RR sets removed.  Coverage counts of other
        vertices are decremented accordingly so subsequent coverage queries
        return marginal coverage with respect to the chosen seeds.
        """
        require_vertex(vertex, self._num_vertices)
        removed = 0
        for set_index in self._index[vertex]:
            if self._alive[set_index]:
                self._alive[set_index] = False
                removed += 1
                for member in self._rr_sets[set_index].vertices:
                    self._coverage[member] -= 1
        return removed

    def __len__(self) -> int:
        return len(self._rr_sets)

    def __iter__(self):
        return iter(self._rr_sets)
