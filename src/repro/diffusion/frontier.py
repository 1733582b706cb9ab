"""Shared whole-frontier CSR gather/dedupe helpers for the diffusion kernels.

The three hot loops of the paper's estimators — forward IC cascades, reverse
RR-set generation, and snapshot reachability — are all breadth-first frontier
expansions over a CSR adjacency.  Each of them needs the same two primitives:

* :func:`frontier_edges` — gather the concatenated edge indices of a whole
  frontier, in frontier order, so one batched operation (one uniform draw,
  one probability compare, one target gather) replaces the per-vertex loop.
* :func:`first_hit` — deduplicate the discovered endpoints so each new vertex
  is activated exactly once, by its *first* discovering edge, preserving the
  exact activation order the historical per-vertex loops produced.

Draw-order contract (why vectorization is PRNG-transparent): every uniform
is one 64-bit word of the generator's PCG64 stream, taken in order, so
``random(k)`` followed by ``random(j)`` yields exactly the same numbers,
elementwise, as one ``random(k + j)`` call (and ``random(0)`` consumes
nothing).  A kernel that takes a BFS level's draws together — covering the
frontier's edges in the same vertex-then-edge order the serial loop used —
therefore consumes the stream identically to per-vertex draws.  The scalar
IC kernels take them from a
:class:`~repro.diffusion.random_source.DrawStream`, which prefetches the
words in blocks and hands the generator back where per-call draws would
leave it, so they make no numpy call per level or per RR-set target.
``tests/diffusion/test_golden_kernels.py`` pins this equivalence against
the reference loops; see ``docs/DESIGN.md``.
"""

from __future__ import annotations

import numpy as np

#: Frontier sizes below this are expanded with a plain Python loop instead of
#: the batched gather: the vectorized path has a fixed ~10-numpy-op overhead
#: per BFS level, which loses to the loop when a level holds only a handful
#: of vertices (the common case on small graphs and in the tails of every
#: BFS).  In the scalar IC kernels the loop's draws now come from a
#: ``DrawStream`` iterator with no numpy call at all, so the loop is cheaper
#: than when this limit was tuned against a per-level ``random(total)``;
#: the limit has not been retuned since.  Both paths consume the PRNG stream
#: identically, so the switch is invisible to results — it only moves the
#: constant factor.
SCALAR_FRONTIER_LIMIT = 16

#: Shared empty index array, so zero-degree frontiers avoid an allocation.
_EMPTY_INDEX = np.empty(0, dtype=np.int64)
_EMPTY_INDEX.setflags(write=False)


def use_scalar_frontier(frontier) -> bool:
    """True when ``frontier`` is small enough for the plain Python loop.

    The single hybrid-dispatch policy shared by every BFS kernel (forward
    cascades, reverse RR generation, snapshot reachability, and the
    bit-parallel mask kernels): levels below :data:`SCALAR_FRONTIER_LIMIT`
    take the plain loop, larger levels the batched gather.  In the scalar
    IC kernels the small-level loop walks the graph's Python-list rows
    (:attr:`~repro.graphs.influence_graph.InfluenceGraph.out_rows` /
    ``in_rows``) against the draw stream's persistent iterator, and a large
    level reads its draws as one array of the stream's block.  Accepts
    anything with a length (list or array frontier).
    """
    return len(frontier) < SCALAR_FRONTIER_LIMIT


def frontier_edges(
    indptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Concatenated CSR edge indices of every vertex in ``frontier``.

    Parameters
    ----------
    indptr:
        CSR row-pointer array of length ``num_vertices + 1``.
    frontier:
        Integer array of vertex ids, in processing order.

    Returns
    -------
    (edge_indices, degrees, total)
        ``edge_indices`` lists the edge positions of ``frontier[0]``'s
        adjacency, then ``frontier[1]``'s, and so on — the exact order in
        which a per-vertex loop over the frontier would have examined them.
        ``degrees`` is the per-frontier-vertex degree array and ``total`` its
        sum (``edge_indices.shape[0]``).
    """
    starts = indptr[frontier]
    degrees = indptr[frontier + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY_INDEX, degrees, 0
    # Within-group offsets: arange(total) minus each group's cumulative start,
    # shifted back to the group's CSR start position.
    group_starts = np.cumsum(degrees) - degrees
    edge_indices = np.arange(total, dtype=np.int64) + np.repeat(
        starts - group_starts, degrees
    )
    return edge_indices, degrees, total


def first_hit(candidates: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """First occurrence of each distinct value in ``candidates``, in order.

    ``slot`` is a reusable scratch array of length ``num_vertices`` (any
    integer dtype); its contents are clobbered.  The result preserves the
    order in which values first appear — exactly the order in which the
    historical per-vertex loop would have activated them — without sorting
    (``np.unique``-free, as one scatter + one gather).
    """
    if candidates.shape[0] <= 1:
        return candidates
    positions = np.arange(candidates.shape[0], dtype=np.int64)
    slot[candidates] = candidates.shape[0]  # clear only the touched entries
    np.minimum.at(slot, candidates, positions)
    keep = slot[candidates] == positions
    return candidates[keep]
