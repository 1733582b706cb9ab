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
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .._validation import normalize_seed_set, require_non_negative_int, require_vertex
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import CsrRows, InfluenceGraph
from .costs import SampleSize, TraversalCost
from .frontier import first_hit, frontier_edges, ranges, use_scalar_frontier
from .random_source import DrawStream, RandomSource, ReseatedGenerator, draw_streams


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


#: RR sets as flat ``int64`` arrays ``(targets, sizes, members, weights)``, the
#: output of every RR batch kernel: set ``i`` has target ``targets[i]``,
#: weight ``weights[i]`` and the ``sizes[i]`` members that follow those of
#: sets ``0..i-1`` in ``members``.
RRArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def rr_arrays(rr_sets: Iterable[RRSet]) -> RRArrays:
    """``RRSet`` objects as :data:`RRArrays`."""
    rr_sets = list(rr_sets)
    return (
        np.array([rr_set.target for rr_set in rr_sets], dtype=np.int64),
        np.array([rr_set.size for rr_set in rr_sets], dtype=np.int64),
        np.fromiter(chain.from_iterable(rr_set.vertices for rr_set in rr_sets), dtype=np.int64),
        np.array([rr_set.weight for rr_set in rr_sets], dtype=np.int64),
    )


def concat_rr_arrays(chunks: list[RRArrays]) -> RRArrays:
    """Several :data:`RRArrays` as one, their sets in chunk order."""
    return tuple(np.concatenate(column) for column in zip(*chunks))


def covered_count(index: tuple[np.ndarray, np.ndarray], seeds: tuple[int, ...]) -> int:
    """Number of distinct sets listed in the inverted-index rows of ``seeds``.

    ``index`` is the CSR ``(indptr, set_ids)`` of :attr:`RRSetCollection.index`;
    one seed's count is its row length, more seeds take a unique over their rows.
    """
    indptr, set_ids = index
    if len(seeds) == 1:
        return int(indptr[seeds[0] + 1] - indptr[seeds[0]])
    positions, _, _ = frontier_edges(indptr, np.asarray(seeds, dtype=np.int64))
    return int(np.unique(set_ids[positions]).size)


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
    if target is not None:
        target = require_vertex(target, graph.num_vertices, name="target")
    visited_stamp = array("q", bytes(8 * graph.num_vertices))
    slot = np.empty(graph.num_vertices, dtype=np.int64)
    with DrawStream(generator) as stream:
        chosen_target = stream.integers(graph.num_vertices) if target is None else target
        members, weight = _rr_kernel(
            graph.in_rows, graph.in_csr, chosen_target, stream, visited_stamp, 1, slot
        )
    rr_set = RRSet(target=chosen_target, vertices=frozenset(members), weight=weight)
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
    stream: DrawStream,
    visited_stamp: array,
    stamp: int,
    slot: np.ndarray,
) -> tuple[list[int], int]:
    """Hybrid whole-frontier reverse BFS over the in-edges; returns ``(members, weight)``.

    The FIFO queue of the historical loop is exactly level-order BFS, so
    taking each level's in-edge draws from ``stream`` in the same
    vertex-then-edge order consumes the PRNG stream identically (see
    :mod:`repro.diffusion.frontier`).  Small levels walk the Python-list
    ``in_rows`` against the stream's draw iterator; large ones gather over
    ``in_csr`` with numpy against an array of draws.  ``visited_stamp`` is
    an ``array('q')`` marking visited vertices with ``stamp``; batch callers
    bump ``stamp`` per RR set instead of clearing it.  ``slot`` is integer
    scratch of length ``num_vertices``.
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
            draws = stream.reserve(total)
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
            draws = stream.array(total)
            live_edges = edge_indices[draws < probs[edge_indices]]
            candidates = sources[live_edges]
            candidates = candidates[stamp_view[candidates] != stamp]
            new_vertices = first_hit(candidates, slot)
            stamp_view[new_vertices] = stamp
            next_frontier = new_vertices.tolist()
        members.extend(next_frontier)
        frontier = next_frontier

    return members, weight


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
    :meth:`repro.diffusion.models.DiffusionModel.sample_rr_store` — and this
    function is the IC shorthand for listing its sets.
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
) -> RRArrays:
    """Batched RR-set generation, one set per generator, with reused scratch buffers.

    Byte-identical to one :func:`sample_rr_set` call per generator (one shared
    stream repeated, or one stream per set).  A shared stream goes through
    :func:`_scalar_rr_arrays`; the runtime chunk workers' form, a
    :class:`~repro.diffusion.random_source.ReseatedGenerator` of per-unit
    streams, goes through the level-synchronous
    :func:`_split_stream_rr_sets`, which draws the same words into the same
    sets.  The sizes and weights are added to the accumulators once.
    """
    if graph.num_vertices == 0:
        raise InvalidParameterError("cannot sample an RR set from an empty graph")
    if isinstance(generators, ReseatedGenerator):
        arrays = _split_stream_rr_sets(graph, generators)
    else:
        arrays = _scalar_rr_arrays(graph, draw_streams(generators))
    _, _, members, weights = arrays
    if cost is not None:
        cost.add_vertices(members.size)
        cost.add_edges(int(weights.sum()))
    if sample_size is not None:
        sample_size.add_vertices(members.size)
    return arrays


def _scalar_rr_arrays(graph: InfluenceGraph, streams: Iterable[DrawStream]) -> RRArrays:
    """One RR set per entry of ``streams``, each by :func:`_rr_kernel`.

    One row/CSR unpack and shared visited/scratch arrays serve the whole
    batch: the visited array is never cleared, each RR set marks it with a
    fresh stamp value.  Each set is appended to the flat :data:`RRArrays`
    columns (``array('q')``, 8 bytes a member).
    """
    in_rows = graph.in_rows
    in_csr = graph.in_csr
    num_vertices = graph.num_vertices
    visited_stamp = array("q", bytes(8 * num_vertices))
    slot = np.empty(num_vertices, dtype=np.int64)
    targets, sizes, members, weights = (array("q") for _ in range(4))
    for stamp, stream in enumerate(streams, start=1):
        chosen_target = stream.integers(num_vertices)
        rr_members, weight = _rr_kernel(
            in_rows, in_csr, chosen_target, stream, visited_stamp, stamp, slot
        )
        targets.append(chosen_target)
        sizes.append(len(rr_members))
        members.extend(rr_members)
        weights.append(weight)
    return tuple(
        np.frombuffer(column, dtype=np.int64) for column in (targets, sizes, members, weights)
    )


#: Scratch bytes one batch of :func:`_split_stream_rr_sets` may hold: its
#: units' visited bitmaps and their windows of raw PCG64 words.
_LEVEL_BUDGET = 4 << 20
#: Raw words in a unit's first window; word 0 picks the target.
_FIRST_WINDOW = 128
#: A growing window holds at least :data:`_AHEAD` levels like the one
#: that outgrew it, and multiplies the unit's fetched words by :data:`_GROWTH`.
_AHEAD = 8
_GROWTH = 2
#: A unit whose next level needs more than this share of the pool starts
#: over on the scalar path, whose numpy levels serve a large level as well.
_UNIT_SHARE = 16
_LOW_HALF = np.uint64(0xFFFFFFFF)
_BITS = np.array([1 << bit for bit in range(8)], dtype=np.uint8)


def _split_stream_rr_sets(graph: InfluenceGraph, units: ReseatedGenerator) -> RRArrays:
    """One RR set per unit of ``units``, a batch of units one BFS level at a time.

    The per-unit scalar path's draw contract, word for word: unit ``i``'s
    target is ``integers(n)``, numpy's Lemire draw over the low half of its
    raw word 0, and its edge draws are words 1, 2, ... in BFS level order,
    vertex then edge; an edge is live when ``(w >> 11) * 2**-53 < p``.  Each
    level of every unit in a batch is one numpy pass (:func:`_level_batch`).
    A unit whose target draw would be rejected, or whose next level is too
    large for the batch's words, takes the per-unit scalar path from its
    word 0 instead, and its set is spliced back in unit order.

    Units per batch follow from ``n``: each is charged a visited bitmap of
    ``n`` bits and two first windows of :data:`_FIRST_WINDOW` words, so the
    batch's scratch stays within :data:`_LEVEL_BUDGET` bytes and at least
    half of its word pool is left for windows that grow.
    """
    num_vertices = graph.num_vertices
    if not 2 <= num_vertices <= 1 << 32:  # integers(1) draws no word
        return _scalar_rr_arrays(graph, units.streams())
    bitmap_bytes = (num_vertices + 7) // 8
    batch = max(1, _LEVEL_BUDGET // (bitmap_bytes + 16 * _FIRST_WINDOW))
    pool = np.empty(
        max(batch * _FIRST_WINDOW, (_LEVEL_BUDGET - batch * bitmap_bytes) // 8), dtype=np.uint64
    )
    # (w >> 11) * 2**-53 < p exactly when the integer w >> 11 is below
    # ceil(p * 2**53), scaling by a power of two being exact; so exactly when
    # w <= ceil(p * 2**53) * 2**11 - 1, which wraps to 2**64 - 1 for p = 1.
    limits = (np.ceil(graph.in_csr[2] * 2.0**53).astype(np.uint64) << np.uint64(11)) - np.uint64(1)
    chunks = [_level_batch(graph, limits, units, states, pool) for states in units.batches(batch)]
    return concat_rr_arrays(chunks) if chunks else _scalar_rr_arrays(graph, ())


def _level_batch(
    graph: InfluenceGraph,
    limits: np.ndarray,
    units: ReseatedGenerator,
    states: list[dict],
    pool: np.ndarray,
) -> RRArrays:
    """The RR sets of the units with ``states``, every unit's BFS advanced a level at a time.

    ``pool`` holds the units' windows of raw words: unit ``u``'s next
    undrawn word is ``pool[head[u]]``, followed by ``avail[u] - 1`` more.
    The first windows come in one pass; a unit whose next level needs more
    words than its window holds gets a larger one (:func:`_grow_windows`).
    Visited marks are one bit per ``(unit, vertex)`` key ``unit * n +
    vertex``; a level's live in-edges keep the first hit per new key, so
    each unit keeps its discovery order.
    """
    indptr, sources, _ = graph.in_csr
    n = graph.num_vertices
    count = len(states)
    units.fill_words(states, pool[: count * _FIRST_WINDOW].reshape(count, _FIRST_WINDOW))
    scaled = (pool[: count * _FIRST_WINDOW : _FIRST_WINDOW] & _LOW_HALF) * np.uint64(n)
    rejected = _lemire_rejected(scaled, n)
    targets = (scaled >> np.uint64(32)).astype(np.int64)
    head = np.arange(1, count * _FIRST_WINDOW, _FIRST_WINDOW)
    avail = np.full(count, _FIRST_WINDOW - 1)
    weights = np.zeros(count, dtype=np.int64)
    top = count * _FIRST_WINDOW
    visited = np.zeros((count * n + 7) // 8, dtype=np.uint8)
    evicted = np.zeros(count, dtype=bool)
    inside = np.flatnonzero(~rejected)
    keys = inside * n + targets[inside]
    _mark(visited, keys)
    levels = [keys]
    while keys.size:
        owners, frontier = np.divmod(keys, n)
        edges, degrees, total = frontier_edges(indptr, frontier)
        if not total:
            break
        first = np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))
        group_units = owners[first]
        needs = np.add.reduceat(degrees, first)
        short = needs > avail[group_units]
        if short.any():
            top, leaving = _grow_windows(
                units, states, pool, top, (head, avail, weights), group_units, needs, short
            )
            if leaving.size:
                evicted[leaving] = True
                keys = keys[~evicted[owners]]
                continue
        # A unit's level draws are the next ``needs`` words of its window.
        draws = pool[ranges(head[group_units], needs, total)]
        live = np.flatnonzero(draws <= limits[edges])
        weights[group_units] += needs
        head[group_units] += needs
        avail[group_units] -= needs
        candidates = owners[np.searchsorted(np.cumsum(degrees), live, side="right")] * n
        candidates += sources[edges[live]]
        keys = _first_hits(candidates[~_marked(visited, candidates)])
        _mark(visited, keys)
        levels.append(keys)

    owners, members = np.divmod(np.concatenate(levels), n)
    outside = rejected | evicted
    if outside.any():
        # These units' sets come whole from the scalar path, each on its own stream.
        scalar = np.flatnonzero(outside)
        scalar_targets, scalar_sizes, scalar_members, scalar_weights = _scalar_rr_arrays(
            graph, units.streams([states[unit] for unit in scalar.tolist()])
        )
        targets[scalar], weights[scalar] = scalar_targets, scalar_weights
        kept = ~outside[owners]
        owners = np.concatenate((owners[kept], np.repeat(scalar, scalar_sizes)))
        members = np.concatenate((members[kept], scalar_members))
    order = np.argsort(owners, kind="stable")
    return targets, np.bincount(owners, minlength=count), members[order], weights


def _grow_windows(
    units: ReseatedGenerator,
    states: list[dict],
    pool: np.ndarray,
    top: int,
    windows: tuple[np.ndarray, np.ndarray, np.ndarray],
    group_units: np.ndarray,
    needs: np.ndarray,
    short: np.ndarray,
) -> tuple[int, np.ndarray]:
    """Give each short unit a window holding its next level's words; returns ``(top, evicted)``.

    ``windows`` is the batch's ``(head, avail, weights)``.  A unit's new
    window at least multiplies the words it has fetched by
    :data:`_GROWTH`; its undrawn words are copied, and only the new ones
    are fetched (:meth:`ReseatedGenerator.words`).  When the pool's end has
    no room, the frontier units' undrawn words first move to its front,
    and each unit gets its level's words and a share of the rest.  A unit
    whose level needs more than the pool's :data:`_UNIT_SHARE`-th part, or
    does not fit at all, is evicted.
    """
    head, avail, weights = windows
    large = short & (needs > pool.size // _UNIT_SHARE)
    evicted = group_units[large]
    short &= ~large
    grow, grow_needs = group_units[short], needs[short]
    have = avail[grow]
    fetched = 1 + weights[grow] + have
    sizes = np.maximum(_AHEAD * grow_needs, have + (_GROWTH - 1) * fetched)
    if top + int(sizes.sum()) > pool.size:
        staying = group_units[~large]
        kept = avail[staying]
        top = int(kept.sum())
        pool[:top] = pool[ranges(head[staying], kept, top)]
        head[staying] = np.cumsum(kept) - kept
        room = pool.size - top
        if room < int(sizes.sum()):
            # Each unit's level first, then a share of the rest of the room.
            fits = np.cumsum(grow_needs) <= room
            evicted = np.concatenate((evicted, grow[~fits]))
            grow, grow_needs, have, fetched, sizes = (
                column[fits] for column in (grow, grow_needs, have, fetched, sizes)
            )
            extra = sizes - grow_needs
            spare = room - int(grow_needs.sum())
            sizes = grow_needs + extra * spare // max(1, int(extra.sum()))
    heads = top + np.cumsum(sizes) - sizes
    for unit, old, kept, start, new, size in zip(
        *(column.tolist() for column in (grow, head[grow], have, fetched, heads, sizes))
    ):
        pool[new : new + kept] = pool[old : old + kept]
        pool[new + kept : new + size] = units.words(states[unit], start, size - kept)
    head[grow], avail[grow] = heads, sizes
    return top + int(sizes.sum()), evicted


def _lemire_rejected(scaled: np.ndarray, n: int) -> np.ndarray:
    """Whether numpy's Lemire draw rejects each ``low * n``: its low half is below ``2**32 % n``."""
    return (scaled & _LOW_HALF) < np.uint64(((1 << 32) - n) % n)


def _first_hits(keys: np.ndarray) -> np.ndarray:
    """``keys`` without the repeats of a key, each kept where it first occurs."""
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if not repeats.size:
        return keys
    kept = np.ones(keys.size, dtype=bool)
    kept[repeats] = False
    return keys[kept]


def _marked(bitmap: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key's bit is set in ``bitmap``."""
    return (bitmap[keys >> 3] & _BITS[keys & 7]).astype(bool)


def _mark(bitmap: np.ndarray, keys: np.ndarray) -> None:
    """Set each key's bit in ``bitmap``."""
    np.bitwise_or.at(bitmap, keys >> 3, _BITS[keys & 7])


class RRSetCollection:
    """RR sets in one flat store with an inverted vertex -> set index.

    Set ``i`` has target ``targets[i]``, weight ``weights[i]`` and members
    ``members[offsets[i]:offsets[i + 1]]``.  The inverted index is the CSR
    :attr:`index`, a stable argsort of ``members``: vertex ``v``'s sets, in
    ascending order, are ``set_ids[indptr[v]:indptr[v + 1]]``.  Coverage
    counts start as its row lengths; Update marks a vertex's alive sets dead
    and decrements their members' coverage in one vectorized step, so both
    Estimate and Update cost the affected sets, not the whole collection.
    :class:`RRSet` objects are built only when the collection is iterated.
    """

    def __init__(self, rr_sets: Iterable[RRSet], num_vertices: int) -> None:
        self._store(rr_arrays(rr_sets), num_vertices)

    @classmethod
    def from_arrays(cls, arrays: RRArrays, num_vertices: int) -> "RRSetCollection":
        """The collection of the RR sets in ``arrays`` (a batch kernel's output)."""
        collection = cls.__new__(cls)
        collection._store(arrays, num_vertices)
        return collection

    def _store(self, arrays: RRArrays, num_vertices: int) -> None:
        num_vertices = require_non_negative_int(num_vertices, "num_vertices")
        targets, sizes, members, weights = (np.asarray(a, dtype=np.int64) for a in arrays)
        outside = (members < 0) | (members >= num_vertices)
        if outside.any():
            raise InvalidParameterError(
                f"RR-set member {members[outside][0]} is out of range for a graph "
                f"with {num_vertices} vertices"
            )
        self._num_vertices = num_vertices
        self._targets, self._members, self._weights = targets, members, weights
        self._offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._coverage = np.bincount(members, minlength=num_vertices)
        set_ids = np.repeat(np.arange(sizes.size), sizes)
        self._index = (
            np.concatenate(([0], np.cumsum(self._coverage))),
            set_ids[np.argsort(members, kind="stable")],
        )
        self._alive = np.ones(sizes.size, dtype=bool)

    # ------------------------------------------------------------------ #
    @property
    def num_total(self) -> int:
        """Total number of RR sets originally inserted."""
        return int(self._targets.size)

    @property
    def num_alive(self) -> int:
        """Number of RR sets not yet removed by Update."""
        return int(np.count_nonzero(self._alive))

    @property
    def total_size(self) -> int:
        """Total number of stored vertices over all RR sets (the RIS sample size)."""
        return int(self._members.size)

    @property
    def total_weight(self) -> int:
        """Total weight (coin flips spent) over all RR sets."""
        return int(self._weights.sum())

    @property
    def weights(self) -> np.ndarray:
        """Each RR set's weight (coin flips spent), in set order; read-only."""
        weights = self._weights.view()
        weights.flags.writeable = False
        return weights

    @property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """The inverted index as the CSR ``(indptr, set_ids)`` over vertices."""
        return self._index

    def coverage(self, vertex: int) -> int:
        """Number of alive RR sets containing ``vertex``."""
        return int(self._coverage[require_vertex(vertex, self._num_vertices)])

    def fraction_covered(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> float:
        """``F_R(S)``: fraction of *all* RR sets intersecting ``seed_set``.

        Matches the paper's definition over the full collection (removal by
        Update is an implementation detail of marginal-coverage queries and
        does not change this quantity's meaning for a fixed collection).
        The seed set is validated like every other seed-set query.
        """
        seeds = normalize_seed_set(seed_set, self._num_vertices)
        if not len(self):
            return 0.0
        return covered_count(self._index, seeds) / len(self)

    def remove_covered_by(self, vertex: int) -> int:
        """Remove all alive RR sets containing ``vertex`` (RIS Update).

        Returns the number of RR sets removed.  Coverage counts of other
        vertices are decremented accordingly so subsequent coverage queries
        return marginal coverage with respect to the chosen seeds.
        """
        vertex = require_vertex(vertex, self._num_vertices)
        indptr, set_ids = self._index
        sets = set_ids[indptr[vertex] : indptr[vertex + 1]]
        sets = sets[self._alive[sets]]
        self._alive[sets] = False
        positions, _, _ = frontier_edges(self._offsets, sets)
        np.subtract.at(self._coverage, self._members[positions], 1)
        return int(sets.size)

    def __len__(self) -> int:
        return int(self._targets.size)

    def __iter__(self) -> Iterator[RRSet]:
        members = self._members.tolist()
        offsets = self._offsets.tolist()
        for target, weight, start, stop in zip(
            self._targets.tolist(), self._weights.tolist(), offsets, offsets[1:]
        ):
            yield RRSet(target=target, vertices=frozenset(members[start:stop]), weight=weight)
