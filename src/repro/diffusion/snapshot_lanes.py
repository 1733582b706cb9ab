"""Stored snapshots packed 64 per machine word for exact reachability counts.

The Snapshot estimator (Algorithm 3.3) answers every Estimate, Update and
spread query by summing, over its ``tau`` stored snapshots, the number of
vertices reachable from a seed set.  :class:`SnapshotLanes` packs the
snapshots into groups of 64 and answers such a query with one lane-mask BFS
per group instead of one BFS per snapshot.  Sampling is untouched (the
snapshots are drawn one by one, exactly as before); only the queries run 64
snapshots per word, and their counts and traversal costs are exact integers
equal to the per-snapshot sums.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .._validation import normalize_seed_set
from ..exceptions import InvalidParameterError
from .bitparallel import LANES_PER_WORD, popcount
from .costs import TraversalCost
from .frontier import frontier_edges
from .snapshots import Snapshot


#: A lane BFS level whose frontier spans more union-CSR edges than this runs
#: as one batched numpy gather; smaller levels loop over Python ints, whose
#: per-edge cost beats the batched path's fixed per-level overhead.
LANE_BATCH_EDGES = 512

#: Shared empty blocked map for queries that block nothing (never mutated).
_NOTHING_BLOCKED: dict[int, int] = {}


class SnapshotLanes:
    """Snapshots packed 64 per ``uint64`` lane word, for exact reachability.

    Group ``g`` holds snapshots ``64g`` to ``64g + 63`` as one *union CSR*:
    every distinct live edge appears once, with a lane word whose bit ``i``
    says the edge is live in the group's snapshot ``i``.  Parallel edges stay
    distinct: the ``j``-th copy of ``u -> v`` is live in lane ``i`` when
    snapshot ``i`` holds at least ``j + 1`` copies.  One lane-mask BFS per
    group answers a query for all of its snapshots at once.

    Counts and traversal costs are exact per-snapshot sums: a vertex expanded
    in lanes ``delta`` counts ``popcount(delta)`` vertex examinations, and
    each union edge it scans counts ``popcount(delta & live)`` edge
    examinations — what one live-edge BFS per snapshot records.

    The Snapshot Update (either strategy) keeps a per-vertex *blocked* word
    per group: :meth:`block_reachable` blocks the lanes it reaches, and
    ``reachable_count(..., blocked=True)`` skips blocked lanes.  One scratch
    array serves every batched level, so instances are not thread-safe.
    """

    def __init__(self, snapshots: Sequence[Snapshot]) -> None:
        if len({snapshot.num_vertices for snapshot in snapshots}) != 1:
            raise InvalidParameterError(
                "SnapshotLanes needs one or more snapshots of one graph, got "
                f"vertex counts {sorted({snapshot.num_vertices for snapshot in snapshots})}"
            )
        self.num_vertices = snapshots[0].num_vertices
        self._groups = [
            _LaneGroup(snapshots[start : start + LANES_PER_WORD])
            for start in range(0, len(snapshots), LANES_PER_WORD)
        ]
        self._scratch = np.zeros(self.num_vertices, dtype=np.uint64)

    def reachable_count(
        self,
        seeds: tuple[int, ...] | list[int] | set[int],
        *,
        cost: TraversalCost | None = None,
        blocked: bool = False,
    ) -> int:
        """Sum over the snapshots of the number of vertices reachable from ``seeds``.

        With ``blocked`` the lanes blocked by :meth:`block_reachable` are
        treated as removed vertices.
        """
        seed_tuple = normalize_seed_set(seeds, self.num_vertices)
        return sum(
            self._bfs(group, seed_tuple, cost, blocked, False) for group in self._groups
        )

    def block_reachable(
        self,
        seeds: tuple[int, ...] | list[int] | set[int],
        *,
        cost: TraversalCost | None = None,
    ) -> int:
        """Block, in every snapshot, the vertices ``seeds`` reach past the blocked ones.

        Runs the query of ``reachable_count(seeds, blocked=True)`` (same
        count, same cost) and then adds what it reached to the blocked lanes.
        """
        seed_tuple = normalize_seed_set(seeds, self.num_vertices)
        return sum(
            self._bfs(group, seed_tuple, cost, True, True) for group in self._groups
        )

    def _bfs(
        self,
        group: "_LaneGroup",
        seeds: tuple[int, ...],
        cost: TraversalCost | None,
        blocked: bool,
        block: bool,
    ) -> int:
        """One lane-mask BFS over ``group``; returns the reached lane count.

        ``active`` maps each touched vertex to its reached lanes (plus its
        blocked lanes) and ``level`` each frontier vertex to its newly reached
        lanes, so the work is proportional to the reached set.  A vertex new
        in several lanes scans its union row once for all of them; a vertex
        new in one lane scans only that lane's live edges.  Levels with many
        union edges go to :meth:`_batched_levels`.
        """
        rows = group.rows
        lane_rows = group.lane_rows
        full = group.full
        blocked_get = group.blocked.get if blocked else _NOTHING_BLOCKED.get
        active: dict[int, int] = {}
        level: dict[int, int] = {}
        level_edges = 0
        for seed in seeds:
            seen = blocked_get(seed, 0)
            if full & ~seen:
                active[seed] = full
                level[seed] = full & ~seen
                level_edges += len(rows[seed])
        vertices = edges = 0
        while level:
            if level_edges > LANE_BATCH_EDGES:
                level, level_vertices, level_edge_count = self._batched_levels(
                    group, active, level, blocked, block
                )
                vertices += level_vertices
                edges += level_edge_count
                level_edges = 0
                continue
            next_level: dict[int, int] = {}
            level_edges = 0
            for vertex, delta in level.items():
                if delta & (delta - 1):
                    # Several lanes: one pass over the union row serves them all.
                    vertices += delta.bit_count()
                    for target, live in rows[vertex]:
                        bits = delta & live
                        if not bits:
                            continue
                        edges += bits.bit_count()
                        seen = active.get(target)
                        if seen is None:
                            seen = blocked_get(target, 0)
                        new = bits & ~seen
                        if new:
                            active[target] = seen | new
                            if target in next_level:
                                next_level[target] |= new
                            else:
                                next_level[target] = new
                                level_edges += len(rows[target])
                    continue
                # One lane: scan only the edges live in it, not the union row.
                vertices += 1
                split = lane_rows.get(vertex)
                if split is None:
                    split = group.split_lanes(vertex)
                flat, bounds = split
                lane_end = delta.bit_length()  # the lane's index plus one
                lane_targets = flat[bounds[lane_end - 1] : bounds[lane_end]]
                edges += len(lane_targets)
                for target in lane_targets:
                    seen = active.get(target)
                    if seen is None:
                        seen = blocked_get(target, 0)
                    if not seen & delta:
                        active[target] = seen | delta
                        if target in next_level:
                            next_level[target] |= delta
                        else:
                            next_level[target] = delta
                            level_edges += len(rows[target])
            level = next_level
        if cost is not None:
            cost.add_vertices(vertices)
            cost.add_edges(edges)
        if block:
            group.block(active)
        return vertices

    def _batched_levels(
        self,
        group: "_LaneGroup",
        active: dict[int, int],
        level: dict[int, int],
        blocked: bool,
        block: bool,
    ) -> tuple[dict[int, int], int, int]:
        """Run levels as numpy gathers until the frontier's edges fit in Python.

        ``active`` moves into the scratch array for the batched levels and,
        when the BFS goes on in Python (or must block what it reached), back
        again.  Returns the remaining level and the vertex and edge
        examinations of the batched levels.
        """
        scratch = self._scratch
        # Touched vertices carry their blocked lanes in ``active``, as in the
        # per-edge levels, so blocked lanes never count as newly reached.
        blocked_words = group.blocked_words if blocked else None
        touched = [np.fromiter(active, dtype=np.int64, count=len(active))]
        scratch[touched[0]] = np.fromiter(
            active.values(), dtype=np.uint64, count=len(active)
        )
        frontier = np.fromiter(level, dtype=np.int64, count=len(level))
        delta = np.fromiter(level.values(), dtype=np.uint64, count=len(level))
        vertices = edges = 0
        while frontier.size:
            edge_indices, degrees, total = frontier_edges(group.indptr, frontier)
            if total <= LANE_BATCH_EDGES:
                break
            vertices += int(popcount(delta).sum())
            examined = np.repeat(delta, degrees) & group.words[edge_indices]
            edges += int(popcount(examined).sum())
            ends = group.targets[edge_indices]
            seen = scratch[ends]
            if blocked_words is not None:
                seen |= blocked_words[ends]
            new = examined & ~seen
            gained = new != 0
            ends = ends[gained]
            new = new[gained]
            # One frontier entry per vertex: sort, then OR each run's bits.
            order = np.argsort(ends, kind="stable")
            ends = ends[order]
            first = np.ones(ends.shape[0], dtype=bool)
            np.not_equal(ends[1:], ends[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            frontier = ends[starts]
            delta = np.bitwise_or.reduceat(new[order], starts) if starts.size else new
            scratch[frontier] |= (
                delta if blocked_words is None else delta | blocked_words[frontier]
            )
            touched.append(frontier)
        all_touched = np.concatenate(touched)
        if frontier.size or block:
            active.update(zip(all_touched.tolist(), scratch[all_touched].tolist()))
        scratch[all_touched] = 0
        return dict(zip(frontier.tolist(), delta.tolist())), vertices, edges


class _LaneGroup:
    """Up to 64 snapshots as one union CSR with a lane word per edge.

    ``rows[v]`` holds vertex ``v``'s union edges as ``(target, live word)``
    Python-int pairs for the per-edge levels; ``indptr``/``targets``/``words``
    are the same edges as arrays for the batched levels.  ``lane_rows[v]``
    is ``rows[v]`` split by lane (see :meth:`split_lanes`), built the first
    time ``v`` is reached in a single lane.  ``blocked`` maps a vertex to its
    blocked lanes (the array twin ``blocked_words`` serves the batched levels
    and is allocated on the first :meth:`block`).
    """

    __slots__ = (
        "indptr",
        "targets",
        "words",
        "rows",
        "lane_rows",
        "full",
        "blocked",
        "blocked_words",
    )

    def __init__(self, snapshots: Sequence[Snapshot]) -> None:
        self.full = (1 << len(snapshots)) - 1
        self.indptr, self.targets, self.words = _union_csr(snapshots)
        pairs = list(zip(self.targets.tolist(), self.words.tolist()))
        bounds = self.indptr.tolist()
        self.rows = [tuple(pairs[start:stop]) for start, stop in zip(bounds, bounds[1:])]
        self.lane_rows: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.blocked: dict[int, int] = {}
        self.blocked_words: np.ndarray | None = None

    def split_lanes(self, vertex: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``vertex``'s live targets sorted by lane, and each lane's bounds in them.

        Lane ``i``'s targets are ``flat[bounds[i]:bounds[i + 1]]`` (built once).
        """
        by_lane: list[list[int]] = [[] for _ in range(LANES_PER_WORD)]
        for target, live in self.rows[vertex]:
            while live:
                bit = live & -live
                by_lane[bit.bit_length() - 1].append(target)
                live ^= bit
        bounds = [0]
        for targets in by_lane:
            bounds.append(bounds[-1] + len(targets))
        split = (tuple(t for targets in by_lane for t in targets), tuple(bounds))
        self.lane_rows[vertex] = split
        return split

    def block(self, reached: dict[int, int]) -> None:
        """Block the lanes in ``reached`` (words that include the old blocked lanes)."""
        if not reached:
            return
        if self.blocked_words is None:
            self.blocked_words = np.zeros(len(self.rows), dtype=np.uint64)
        self.blocked.update(reached)
        vertices = np.fromiter(reached, dtype=np.int64, count=len(reached))
        self.blocked_words[vertices] = np.fromiter(
            reached.values(), dtype=np.uint64, count=len(reached)
        )


def _union_csr(snapshots: Sequence[Snapshot]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, targets, words)`` of the union of up to 64 snapshots' live edges.

    Edges are keyed by ``(source, target, occurrence)``, the occurrence
    numbering parallel copies within one snapshot, so each key is live at most
    once per lane and the lane bits of a key OR together into its word.
    """
    num_vertices = snapshots[0].num_vertices
    lanes = np.repeat(
        np.arange(len(snapshots), dtype=np.uint64),
        [snapshot.num_live_edges for snapshot in snapshots],
    )
    vertex_ids = np.arange(num_vertices, dtype=np.int64)
    keys = np.concatenate(
        [
            np.repeat(vertex_ids, np.diff(snapshot.indptr)) * num_vertices
            + snapshot.targets
            for snapshot in snapshots
        ]
    )
    # Number the parallel copies of each key within each snapshot.
    order = np.lexsort((keys, lanes))
    keys, lanes = keys[order], lanes[order]
    position = np.arange(keys.shape[0], dtype=np.int64)
    run_start = np.ones(keys.shape[0], dtype=bool)
    run_start[1:] = (keys[1:] != keys[:-1]) | (lanes[1:] != lanes[:-1])
    occurrence = position - np.maximum.accumulate(np.where(run_start, position, 0))
    # Group equal (key, occurrence) pairs and OR their lane bits.
    order = np.lexsort((occurrence, keys))
    keys, occurrence = keys[order], occurrence[order]
    bits = np.left_shift(np.uint64(1), lanes[order])
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (occurrence[1:] != occurrence[:-1])
    starts = np.flatnonzero(first)
    words = np.bitwise_or.reduceat(bits, starts) if starts.size else bits
    sources, targets = np.divmod(keys[starts], num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
    return indptr, targets, words
