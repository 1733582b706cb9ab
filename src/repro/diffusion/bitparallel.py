"""Bit-parallel cascade kernels: 64 simulated worlds per machine word.

Every estimator in this codebase spends its budget on thousands of
near-identical randomized BFS traversals.  PR 4 vectorized *across the
frontier* (one gather per BFS level); this module vectorizes *across
simulations*: it runs a **single** whole-frontier BFS per batch of up to
:data:`LANES_PER_WORD` worlds, replacing activation sets with activation
*masks* — ``active[v]`` is the ``uint64`` word of worlds in which ``v`` is
active.  Forward cascades sample every edge's liveness up front into one
word per edge (bit ``w`` of ``live[e]`` = edge ``e`` is live in world
``w``) and advance with bitwise AND/OR plus popcounts.  RR sets are sampled
*lazily*: a reverse level draws liveness only for the in-edges of its newly
active (vertex, world) pairs, through the model's per-level hook
(:meth:`~repro.diffusion.models.DiffusionModel.live_in_edges`), so each
examined (edge, world) pair is drawn once and no other edge is drawn at all.

Draw-order contract (documented, intentionally *not* byte-identical to the
scalar stream — see ``docs/DESIGN.md``):

* simulations are processed in **words** of up to 64 lanes; word ``i`` covers
  simulation indices ``64*i .. min(64*(i+1), count) - 1`` and lane ``w`` of
  word ``i`` is simulation ``64*i + w``;
* a forward-cascade word consumes exactly one ``generator.random((m,
  lanes))`` call (edge-major: the ``lanes`` flips of edge 0 are the first
  doubles of the stream), or ``generator.random((n, lanes))`` for LT
  threshold draws (vertex-major);
* an RR-set word first draws its targets — one ``generator.integers(n,
  size=lanes)`` call — and then one draw call per level over the level's
  (vertex, lane) pairs, ordered by ascending vertex and then lane: IC one
  double per examined in-edge, LT one threshold per pair with in-degree > 0;
* with a single ``rng``, words are consumed sequentially from its stream;
  under the runtime's split-stream contract, word ``i`` draws from the child
  stream of ``(seed, i)``, so any ``jobs`` value is bit-identical.

The results are therefore deterministic given ``(seed, lane layout)`` and
statistically exchangeable with the scalar path (same per-world live-edge
distribution), but the two paths consume the PRNG differently: the scalar
kernels draw per world, one RR set or cascade after another, while a
bit-parallel word draws for all its lanes at once (and forward words
pre-sample every edge of the graph per world).  The scalar path stays
the default for reproduction runs; this fast path is opt-in via
``batch_mode="bitparallel"``.

Portability: per-word population counts use :func:`numpy.bitwise_count`
where available (numpy >= 2.0) and fall back to a 16-bit lookup table on the
``numpy >= 1.23`` floor pinned by ``setup.py``.  Both paths are unit-tested
against each other.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .._validation import normalize_seed_set, require_positive_int
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from .cascade import CascadeResult
from .costs import SampleSize, TraversalCost
from .frontier import frontier_edges, use_scalar_frontier
from .reverse import RRArrays, concat_rr_arrays

#: Number of simulated worlds packed into one ``uint64`` machine word.
LANES_PER_WORD = 64

#: The scalar (golden, default) batch mode name.
SCALAR = "scalar"

#: The bit-parallel opt-in batch mode name.
BITPARALLEL = "bitparallel"

#: Accepted ``batch_mode`` values, in precedence order of the docs.
BATCH_MODES: tuple[str, ...] = (SCALAR, BITPARALLEL)

#: True when this numpy ships the native ``bitwise_count`` ufunc (>= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: 16-bit population-count lookup table for the pre-numpy-2.0 fallback.
_POPCOUNT16 = np.array([bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8)

#: ``_LANE_BITS[w]`` is the ``uint64`` word with only bit ``w`` set.
_LANE_BITS = np.uint64(1) << np.arange(LANES_PER_WORD, dtype=np.uint64)


def require_batch_mode(value: str) -> str:
    """Validate an explicit ``batch_mode`` value, naming the alternatives."""
    if value not in BATCH_MODES:
        raise InvalidParameterError(
            f"unknown batch_mode {value!r}; expected one of: {', '.join(BATCH_MODES)}"
        )
    return value


def resolve_batch_mode(batch_mode: str | None) -> str:
    """Normalise a ``batch_mode`` argument: ``None`` means the scalar default."""
    return SCALAR if batch_mode is None else require_batch_mode(batch_mode)


def record_counters(telemetry, count: int) -> None:
    """Record the deterministic bit-parallel counters for ``count`` lanes.

    Incremented at the dispatch seam — before any serial-vs-chunked split —
    so ``bitparallel.words`` / ``bitparallel.lanes_used`` are identical for
    every ``jobs`` value, per the deterministic-counter naming convention.
    """
    if telemetry is not None and telemetry.enabled:
        telemetry.incr("bitparallel.words", len(word_spans(count)))
        telemetry.incr("bitparallel.lanes_used", count)


# --------------------------------------------------------------------------- #
# word primitives: popcount, lane packing, lane counting
# --------------------------------------------------------------------------- #
def _popcount_bitwise_count(words: np.ndarray) -> np.ndarray:
    """Per-element population count via the native numpy >= 2.0 ufunc."""
    return np.bitwise_count(words).astype(np.int64)


def _popcount_lookup(words: np.ndarray) -> np.ndarray:
    """Per-element population count via the 16-bit lookup table.

    A ``uint64`` word is four ``uint16`` chunks; which chunk holds which bits
    depends on byte order, but a popcount sums all four, so the reinterpreting
    view is endian-independent.
    """
    chunks = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint16)
    return (
        _POPCOUNT16[chunks]
        .reshape(words.shape + (4,))
        .sum(axis=-1, dtype=np.int64)
    )


#: Per-element population count of a ``uint64`` array, as ``int64``.
popcount = _popcount_bitwise_count if HAVE_BITWISE_COUNT else _popcount_lookup


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a C-contiguous boolean ``(n, num_lanes)`` matrix into ``n`` words.

    Bit ``w`` of word ``j`` is ``matrix[j, w]``; ``num_lanes`` is at most
    :data:`LANES_PER_WORD`.  The samplers produce these lane-minor matrices
    directly: one ``np.packbits`` call packs every row into 8 little-endian
    bytes, which *are* the ``uint64`` word on any host once viewed through
    an explicit little-endian dtype.  ~3x faster than shifting out each lane.
    """
    n, num_lanes = matrix.shape
    if num_lanes < LANES_PER_WORD:
        padded = np.zeros((n, LANES_PER_WORD), dtype=bool)
        padded[:, :num_lanes] = matrix
        matrix = padded
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view("<u8").ravel().astype(np.uint64, copy=False)


def unpack_lanes(words: np.ndarray, num_lanes: int) -> np.ndarray:
    """Unpack ``uint64`` words into a boolean ``(num_lanes, n)`` matrix.

    Inverse of :func:`_pack_rows` (up to the transpose) for the first
    ``num_lanes`` bits; higher bits are ignored.
    """
    require_lanes(num_lanes)
    words = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(num_lanes, dtype=np.uint64)[:, None]
    return ((words[None, :] >> shifts) & np.uint64(1)).astype(bool)


def lane_counts(words: np.ndarray, num_lanes: int) -> np.ndarray:
    """Per-lane set-bit totals of a word array (``int64`` of length lanes).

    Entry ``w`` counts the elements of ``words`` whose bit ``w`` is set — for
    an activation-mask array this is world ``w``'s activated-vertex count.
    """
    require_lanes(num_lanes)
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return np.zeros(num_lanes, dtype=np.int64)
    # Unpack to one byte per bit and column-sum: ~2x faster than shifting
    # out each lane, and the explicit little-endian view keeps lane w at
    # flat bit position w on big-endian hosts too.
    bits = np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8), bitorder="little"
    ).reshape(words.size, LANES_PER_WORD)
    return bits.sum(axis=0, dtype=np.int64)[:num_lanes]


def require_lanes(num_lanes: int) -> int:
    """Validate a lane count (1 .. :data:`LANES_PER_WORD`)."""
    require_positive_int(num_lanes, "num_lanes")
    if num_lanes > LANES_PER_WORD:
        raise InvalidParameterError(
            f"num_lanes must be at most {LANES_PER_WORD}, got {num_lanes}"
        )
    return num_lanes


def lanes_mask(num_lanes: int) -> np.uint64:
    """The ``uint64`` word with the low ``num_lanes`` bits set."""
    require_lanes(num_lanes)
    return np.uint64((1 << num_lanes) - 1)


def word_spans(count: int) -> list[tuple[int, int]]:
    """Partition ``count`` simulations into ``(start, num_lanes)`` words.

    Word ``i`` covers simulation indices ``start .. start + num_lanes - 1``
    with ``start = 64 * i``; only the last word may be partial.  This is the
    lane layout every bit-parallel driver (and the runtime's word-chunked
    workers) uses, so it is the unit of the determinism contract.
    """
    require_positive_int(count, "count")
    return [
        (start, min(LANES_PER_WORD, count - start))
        for start in range(0, count, LANES_PER_WORD)
    ]


# --------------------------------------------------------------------------- #
# live-edge sampling (the model-specific part): forward words up front,
# reverse in-edges lazily, one BFS level at a time
# --------------------------------------------------------------------------- #
def ic_live_words(
    probs: np.ndarray, num_lanes: int, generator: np.random.Generator
) -> np.ndarray:
    """Sample ``num_lanes`` independent-cascade worlds over one edge array.

    ``probs`` is a per-edge probability array (forward cascades pass
    ``out_csr``'s, so the words align with the forward CSR).  Consumes exactly one
    ``generator.random((len(probs), num_lanes))`` call, edge-major — the
    draws land directly in the row-packed layout, skipping a transpose.
    """
    require_lanes(num_lanes)
    draws = generator.random((probs.shape[0], num_lanes))
    return _pack_rows(draws < probs[:, None])


def _segment_intervals(
    indptr: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ``[lower, upper)`` sub-intervals of each CSR segment.

    For a vertex whose segment holds probabilities ``p_1 .. p_d`` the edges
    receive the consecutive intervals ``[0, p_1), [p_1, p_1 + p_2), ...`` —
    the linear-threshold one-in-edge selection rule: a uniform draw ``u``
    selects edge ``j`` iff ``lower_j <= u < upper_j`` and no edge at all when
    ``u >= sum p_j``.
    """
    cumulative = np.concatenate(([0.0], np.cumsum(probs)))
    base = np.repeat(cumulative[indptr[:-1]], np.diff(indptr))
    return cumulative[:-1] - base, cumulative[1:] - base


def lt_live_words(
    graph: InfluenceGraph, num_lanes: int, generator: np.random.Generator
) -> np.ndarray:
    """Sample ``num_lanes`` linear-threshold worlds as forward-CSR edge words.

    Per world, each vertex draws one uniform threshold and keeps **at most
    one** in-edge — edge ``(u, v)`` iff the draw lands in that edge's
    sub-interval of ``[0, sum of v's incoming weights)``.  Consumes exactly
    one ``generator.random((n, num_lanes))`` call (vertex-major, one
    threshold per vertex per world).  The words align with the **forward**
    CSR edge order, for mask cascades over ``out_csr``.
    """
    require_lanes(num_lanes)
    draws = generator.random((graph.num_vertices, num_lanes))
    out_indptr, out_targets, out_probs = graph.out_csr
    # Group the forward edges by target to assign the per-target intervals,
    # then scatter the words back to forward-CSR positions.
    order = np.argsort(out_targets, kind="stable")
    grouped_targets = out_targets[order]
    in_degrees = np.bincount(out_targets, minlength=graph.num_vertices)
    grouped_indptr = np.concatenate(([0], np.cumsum(in_degrees)))
    lower, upper = _segment_intervals(grouped_indptr, out_probs[order])
    gathered = draws[grouped_targets]
    selected = (gathered >= lower[:, None]) & (gathered < upper[:, None])
    words = np.empty(graph.num_edges, dtype=np.uint64)
    words[order] = _pack_rows(selected)
    return words


def ic_live_in_edges(
    graph: InfluenceGraph,
    edges: np.ndarray,
    degrees: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """Independent-cascade liveness of one reverse level's examined in-edges.

    ``edges`` lists reverse-CSR edge positions, one in-row per newly active
    (vertex, world) pair in pair order (``degrees`` holds the row lengths).
    Consumes exactly one ``generator.random(len(edges))`` call: one coin
    flip per examined (edge, world) pair, in ``edges`` order.
    """
    return generator.random(edges.shape[0]) < graph.in_csr[2][edges]


def lt_live_in_edges(
    graph: InfluenceGraph,
    edges: np.ndarray,
    degrees: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """Linear-threshold liveness of one reverse level's examined in-edges.

    Same layout as :func:`ic_live_in_edges`.  Each pair with in-degree > 0
    draws one threshold — one ``generator.random`` call over those pairs, in
    pair order — and keeps the in-edge whose sub-interval of the cumulative
    incoming weights holds it, if any (the rule of
    :func:`~repro.diffusion.linear_threshold.sample_lt_rr_set`), so every
    pair keeps **at most one** live in-edge.
    """
    rows = np.concatenate(([0], np.cumsum(degrees)))
    lower, upper = _segment_intervals(rows, graph.in_csr[2][edges])
    drawn = degrees[degrees > 0]
    thresholds = np.repeat(generator.random(drawn.shape[0]), drawn)
    return (thresholds >= lower) & (thresholds < upper)


# --------------------------------------------------------------------------- #
# mask BFS kernels (model-agnostic: live worlds come in, masks go out)
# --------------------------------------------------------------------------- #
def forward_cascade_masks(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    live_words: np.ndarray,
    num_lanes: int,
    *,
    cost: TraversalCost | None = None,
) -> np.ndarray:
    """Run one 64-world forward cascade; returns per-vertex activation words.

    ``live_words`` holds one ``uint64`` word per **forward-CSR** edge (bit
    ``w`` = live in world ``w``).  The BFS maintains ``active[v]`` (worlds
    where ``v`` is active) and a frontier of vertices whose words gained bits
    last level; one gather + one scatter-OR per level advances all worlds at
    once.  Traversal cost follows the scalar per-world convention exactly:
    each (vertex, world) activation counts one vertex examination and each of
    its out-edges one edge examination in that world.
    """
    require_lanes(num_lanes)
    indptr, targets, _ = graph.out_csr
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    if live_words.shape[0] != graph.num_edges:
        raise InvalidParameterError(
            f"live_words must hold one word per edge ({graph.num_edges}), "
            f"got {live_words.shape[0]}"
        )
    active = np.zeros(graph.num_vertices, dtype=np.uint64)
    full = lanes_mask(num_lanes)
    frontier = np.asarray(seed_tuple, dtype=np.int64)
    active[frontier] = full
    delta = np.full(frontier.shape[0], full, dtype=np.uint64)
    _mask_bfs(indptr, targets, live_words, active, frontier, delta, cost)
    return active


def _mask_bfs(
    indptr: np.ndarray,
    endpoints: np.ndarray,
    live_words: np.ndarray,
    active: np.ndarray,
    frontier: np.ndarray,
    delta: np.ndarray,
    cost: TraversalCost | None,
) -> None:
    """Shared 64-world BFS over one CSR direction, updating ``active`` in place.

    ``frontier`` lists the vertices whose activation words changed last level
    and ``delta`` the newly-set bits of each; a level expands every frontier
    edge in every newly-active world at once (``delta & live``), ORs the
    surviving bits into the endpoints, and keeps the vertices that actually
    gained bits as the next frontier.  Levels below the shared
    :func:`~repro.diffusion.frontier.use_scalar_frontier` threshold run a
    plain per-vertex Python-int loop instead of the batched gather — same
    masks, smaller constant.
    """
    # Dense per-vertex accumulator for the batched branch: scatter-OR the
    # surviving bits here, then read the next frontier off its nonzeros.
    # Cheaper than np.unique + before/after snapshots on every level, and
    # naturally yields the frontier in ascending-vertex order.
    gained_words = np.zeros(active.shape[0], dtype=np.uint64)
    # Scratch buffers for the batched branch, sized for the worst level (all
    # edges): np.take with ``out=`` keeps the many small per-level gathers
    # from allocating fresh arrays each time.
    word_buffer = np.empty(live_words.shape[0], dtype=np.uint64)
    mask_buffer = np.empty(live_words.shape[0], dtype=np.uint64)
    id_buffer = np.empty(live_words.shape[0], dtype=np.int64)
    while frontier.size:
        if use_scalar_frontier(frontier):
            if cost is not None:
                cost.add_vertices(int(popcount(delta).sum()))
            gained: dict[int, int] = {}
            for vertex, word in zip(frontier.tolist(), delta.tolist()):
                start, stop = int(indptr[vertex]), int(indptr[vertex + 1])
                degree = stop - start
                if cost is not None:
                    cost.add_edges(word.bit_count() * degree)
                if degree == 0:
                    continue
                for offset in range(start, stop):
                    endpoint = int(endpoints[offset])
                    new_bits = word & int(live_words[offset]) & ~int(active[endpoint])
                    if new_bits:
                        active[endpoint] |= np.uint64(new_bits)
                        gained[endpoint] = gained.get(endpoint, 0) | new_bits
            # Sorted next frontier, matching the vectorized branch's np.unique
            # order so the two paths are step-identical, not just mask-equal.
            frontier = np.array(sorted(gained), dtype=np.int64)
            delta = np.array([np.uint64(gained[v]) for v in frontier.tolist()], dtype=np.uint64)
            continue
        edge_indices, degrees, total = frontier_edges(indptr, frontier)
        examined = np.repeat(delta, degrees)
        if cost is not None:
            cost.add_vertices(int(popcount(delta).sum()))
            cost.add_edges(int(popcount(examined).sum()))
        if total == 0:
            break
        new_words = examined
        live_gather = word_buffer[:total]
        np.take(live_words, edge_indices, out=live_gather)
        new_words &= live_gather
        endpoint_ids = id_buffer[:total]
        np.take(endpoints, edge_indices, out=endpoint_ids)
        blocked = mask_buffer[:total]
        np.take(active, endpoint_ids, out=blocked)
        np.bitwise_not(blocked, out=blocked)
        new_words &= blocked
        nonzero = np.nonzero(new_words)[0]
        if nonzero.size == 0:
            break
        endpoint_ids = endpoint_ids[nonzero]
        new_words = new_words[nonzero]
        np.bitwise_or.at(gained_words, endpoint_ids, new_words)
        frontier = np.nonzero(gained_words)[0]
        delta = gained_words[frontier]
        active[frontier] |= delta
        gained_words[frontier] = np.uint64(0)


# --------------------------------------------------------------------------- #
# word-batched drivers (what the seams call)
# --------------------------------------------------------------------------- #
def batched_cascade_counts(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    count: int,
    generators: Iterable[np.random.Generator],
    live_words_fn,
    *,
    cost: TraversalCost | None = None,
) -> np.ndarray:
    """Per-simulation activated counts for ``count`` bit-parallel cascades.

    ``generators`` yields one generator per word (one object repeated for a
    single shared stream) and ``live_words_fn(num_lanes, generator)`` samples
    one word batch of live edges in forward-CSR order (the model hook).
    Words are drawn and run in order per the draw-order contract; the
    returned ``int64`` array has one activated-vertex count per simulation,
    without materialising per-world activation lists.
    """
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    counts = np.empty(count, dtype=np.int64)
    for (start, lanes), generator in zip(word_spans(count), generators):
        words = live_words_fn(lanes, generator)
        active = forward_cascade_masks(graph, seed_tuple, words, lanes, cost=cost)
        counts[start : start + lanes] = lane_counts(active, lanes)
    return counts


def batched_cascade_results(
    graph: InfluenceGraph,
    seeds: tuple[int, ...] | list[int] | set[int],
    count: int,
    generators: Iterable[np.random.Generator],
    live_words_fn,
    *,
    cost: TraversalCost | None = None,
) -> list[CascadeResult]:
    """``count`` bit-parallel cascades materialised as :class:`CascadeResult`.

    Same word and generator contract as :func:`batched_cascade_counts`.
    Unlike the scalar kernels, per-world activation *order* is not tracked —
    each result lists its activated vertices in ascending vertex id (the
    activated **set**, totals, and costs follow the per-world convention
    exactly).  Callers that depend on activation order must use the scalar
    path.
    """
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    results: list[CascadeResult] = []
    for (_, lanes), generator in zip(word_spans(count), generators):
        words = live_words_fn(lanes, generator)
        active = forward_cascade_masks(graph, seed_tuple, words, lanes, cost=cost)
        bits = unpack_lanes(active, lanes)
        for lane in range(lanes):
            activated = np.flatnonzero(bits[lane])
            results.append(
                CascadeResult(tuple(activated.tolist()), int(activated.shape[0]))
            )
    return results


def batched_rr_sets(
    graph: InfluenceGraph,
    count: int,
    generators: Iterable[np.random.Generator],
    live_in_edges,
    *,
    cost: TraversalCost | None = None,
    sample_size: SampleSize | None = None,
) -> RRArrays:
    """``count`` bit-parallel RR sets as flat :data:`~repro.diffusion.reverse.RRArrays`.

    ``generators`` yields one generator per word, as in
    :func:`batched_cascade_counts`.  Each word draws its lane targets first
    (``generator.integers(n, size=lanes)``), then runs one lazy reverse BFS
    over all its lanes: per level, ``live_in_edges(edges, degrees,
    generator)`` (the model hook, see :func:`ic_live_in_edges`) decides
    which in-edges of the level's newly active (vertex, lane) pairs are
    live, so only examined (edge, world) pairs are ever drawn.  Lane ``w``'s
    RR set holds the vertices activated in lane ``w``; its weight counts
    the in-edges examined in that world, matching the scalar convention.
    Each word contributes its activated vertices sorted by lane as members.
    """
    num_vertices = graph.num_vertices
    if num_vertices == 0:
        raise InvalidParameterError("cannot sample an RR set from an empty graph")
    indptr, sources, _ = graph.in_csr
    in_degrees = np.diff(indptr)
    active = np.zeros(num_vertices, dtype=np.uint64)
    words: list[RRArrays] = []
    for (_, lanes), generator in zip(word_spans(count), generators):
        targets = generator.integers(num_vertices, size=lanes).astype(np.int64)
        vertices, pair_lanes = _reverse_word(
            indptr, sources, targets, active, live_in_edges, generator
        )
        sizes = np.bincount(pair_lanes, minlength=lanes)
        weights = np.bincount(pair_lanes, weights=in_degrees[vertices], minlength=lanes)
        members = vertices[np.argsort(pair_lanes, kind="stable")]
        words.append((targets, sizes, members, weights.astype(np.int64)))
    arrays = concat_rr_arrays(words)
    total_size = int(arrays[2].size)
    if cost is not None:
        cost.add_vertices(total_size)
        cost.add_edges(int(arrays[3].sum()))
    if sample_size is not None:
        sample_size.add_vertices(total_size)
    return arrays


def _reverse_word(
    indptr: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    active: np.ndarray,
    live_in_edges,
    generator: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Lazy reverse BFS of one word; returns its ``(vertex, lane)`` activations.

    Lane ``w`` starts at ``targets[w]``.  A level holds the pairs that became
    active last level, ordered by ascending vertex and then lane; it expands
    each pair over its in-CSR row, asks ``live_in_edges`` which of those
    edges are live, and ORs the lane bits of the live sources into
    ``active`` (bit ``w`` of ``active[v]`` = ``v`` is in lane ``w``'s RR
    set).  A (vertex, lane) pair activates at most once, so each (edge,
    world) pair is examined — and drawn — at most once.  ``active`` is
    all-zero on entry and is cleared again before returning.
    """
    lane_ids = np.argsort(targets, kind="stable")
    vertices = targets[lane_ids]
    np.bitwise_or.at(active, vertices, _LANE_BITS[lane_ids])
    level_vertices: list[np.ndarray] = []
    level_lanes: list[np.ndarray] = []
    while vertices.size:
        level_vertices.append(vertices)
        level_lanes.append(lane_ids)
        edges, degrees, total = frontier_edges(indptr, vertices)
        if total == 0:
            break
        live = live_in_edges(edges, degrees, generator)
        candidates = sources[edges[live]]
        candidate_lanes = np.repeat(lane_ids, degrees)[live]
        fresh = (active[candidates] & _LANE_BITS[candidate_lanes]) == 0
        # A source reached by several live edges in one lane is one pair;
        # the sorted keys give the next level its vertex-then-lane order
        # (sort + neighbour mask: much cheaper than np.unique per level).
        keys = np.sort(candidates[fresh] * LANES_PER_WORD + candidate_lanes[fresh])
        if keys.size == 0:
            break
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        vertices = keys // LANES_PER_WORD
        lane_ids = keys % LANES_PER_WORD
        np.bitwise_or.at(active, vertices, _LANE_BITS[lane_ids])
    vertices = np.concatenate(level_vertices)
    active[vertices] = 0
    return vertices, np.concatenate(level_lanes)
