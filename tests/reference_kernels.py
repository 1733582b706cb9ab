"""Per-vertex reference loops for the traversal kernels, for tests only.

One plain loop per kernel, kept verbatim from the pre-vectorization code
(the LT one walks the parent array directly), so the tests can hold the
library's kernels to them:

* ``simulate_cascade_reference`` and ``sample_rr_set_reference`` draw one
  ``random(degree)`` per expanded vertex; the golden tests
  (``tests/diffusion/test_golden_kernels.py``) require the batched IC kernels
  to reproduce them byte for byte — activation order, RR-set contents and
  weights, traversal-cost totals and PRNG stream consumption;
* ``reachable_set_reference`` is one live-edge BFS over one snapshot; the
  Snapshot lane queries (:class:`repro.diffusion.snapshot_lanes.SnapshotLanes`)
  must equal its per-snapshot counts and costs summed;
* ``lt_reachable_set_reference`` follows an LT parent array forward, the
  reference for :meth:`repro.diffusion.linear_threshold.LTSnapshot.to_snapshot`.

They must not grow features: any behavioural change here would silently
weaken the tests that compare against them.  ``tests/`` is on ``sys.path``
under pytest, so any test imports them as ``from reference_kernels import ...``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro._validation import normalize_seed_set, require_vertex
from repro.diffusion.cascade import CascadeResult
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.linear_threshold import LTSnapshot
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import RRSet
from repro.diffusion.snapshots import Snapshot
from repro.graphs.influence_graph import InfluenceGraph


def simulate_cascade_reference(
    graph: InfluenceGraph,
    seeds,
    rng: RandomSource | np.random.Generator,
    *,
    cost: TraversalCost | None = None,
) -> CascadeResult:
    """The historical per-vertex forward IC cascade loop."""
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    indptr, targets, probs = graph.out_csr

    active = np.zeros(graph.num_vertices, dtype=bool)
    activated_order: list[int] = []
    frontier: list[int] = []
    for seed in seed_tuple:
        active[seed] = True
        activated_order.append(seed)
        frontier.append(seed)

    while frontier:
        next_frontier: list[int] = []
        for vertex in frontier:
            if cost is not None:
                cost.add_vertices(1)
            start, stop = indptr[vertex], indptr[vertex + 1]
            degree = stop - start
            if degree == 0:
                continue
            if cost is not None:
                cost.add_edges(int(degree))
            draws = generator.random(degree)
            live = draws < probs[start:stop]
            for offset in np.nonzero(live)[0]:
                target = int(targets[start + offset])
                if not active[target]:
                    active[target] = True
                    activated_order.append(target)
                    next_frontier.append(target)
        frontier = next_frontier

    return CascadeResult(tuple(activated_order), len(activated_order))


def sample_rr_set_reference(
    graph: InfluenceGraph,
    rng: RandomSource | np.random.Generator,
    *,
    target: int | None = None,
    cost: TraversalCost | None = None,
    sample_size: SampleSize | None = None,
) -> RRSet:
    """The historical per-vertex reverse-BFS RR-set loop."""
    generator = rng.generator if isinstance(rng, RandomSource) else rng
    if graph.num_vertices == 0:
        raise ValueError("cannot sample an RR set from an empty graph")
    if target is None:
        chosen_target = int(generator.integers(graph.num_vertices))
    else:
        chosen_target = require_vertex(target, graph.num_vertices, name="target")

    indptr, sources, probs = graph.in_csr
    visited: set[int] = {chosen_target}
    queue: deque[int] = deque([chosen_target])
    weight = 0
    while queue:
        vertex = queue.popleft()
        if cost is not None:
            cost.add_vertices(1)
        start, stop = indptr[vertex], indptr[vertex + 1]
        degree = int(stop - start)
        weight += degree
        if degree == 0:
            continue
        if cost is not None:
            cost.add_edges(degree)
        draws = generator.random(degree)
        live = draws < probs[start:stop]
        for offset in np.nonzero(live)[0]:
            source = int(sources[start + offset])
            if source not in visited:
                visited.add(source)
                queue.append(source)

    rr_set = RRSet(target=chosen_target, vertices=frozenset(visited), weight=weight)
    if sample_size is not None:
        sample_size.add_vertices(rr_set.size)
    return rr_set


def reachable_set_reference(
    snapshot: Snapshot,
    seeds,
    *,
    cost: TraversalCost | None = None,
    blocked: np.ndarray | None = None,
) -> set[int]:
    """The historical per-vertex live-edge BFS reachability loop.

    ``blocked`` is an optional boolean mask of vertices treated as removed,
    as in the Snapshot graph-reduction Update (Section 3.4.3).
    """
    seed_tuple = normalize_seed_set(seeds, snapshot.num_vertices)
    visited: set[int] = set()
    queue: deque[int] = deque()
    for seed in seed_tuple:
        if blocked is not None and blocked[seed]:
            continue
        if seed not in visited:
            visited.add(seed)
            queue.append(seed)
    while queue:
        vertex = queue.popleft()
        if cost is not None:
            cost.add_vertices(1)
        neighbours = snapshot.targets[snapshot.indptr[vertex] : snapshot.indptr[vertex + 1]]
        if cost is not None:
            cost.add_edges(int(neighbours.shape[0]))
        for target in neighbours:
            target = int(target)
            if blocked is not None and blocked[target]:
                continue
            if target not in visited:
                visited.add(target)
                queue.append(target)
    return visited


def lt_reachable_set_reference(snapshot: LTSnapshot, seeds) -> set[int]:
    """Vertices reachable from ``seeds`` over an LT snapshot's selected edges."""
    seed_tuple = normalize_seed_set(seeds, snapshot.num_vertices)
    children: list[list[int]] = [[] for _ in range(snapshot.num_vertices)]
    for child, parent in enumerate(snapshot.parent.tolist()):
        if parent >= 0:
            children[parent].append(child)
    visited: set[int] = set(seed_tuple)
    queue: deque[int] = deque(seed_tuple)
    while queue:
        for child in children[queue.popleft()]:
            if child not in visited:
                visited.add(child)
                queue.append(child)
    return visited
