"""Exact influence-spread computation for tiny graphs.

Computing ``Inf(S)`` exactly is #P-hard in general (Section 2.3), but for
graphs with a handful of edges it can be done by enumerating all ``2^m``
live-edge realizations of the random-graph interpretation and weighting each
by its probability.  This is the ground truth used by the test suite to
verify that the Oneshot, Snapshot, and RIS estimators are unbiased and that
the greedy framework picks genuinely optimal seeds on small fixtures.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .._validation import normalize_seed_set, require_positive_int
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph

#: Refuse exact enumeration beyond this many edges (2^24 realizations).
MAX_EXACT_EDGES = 24


def _reachable_in_realization(
    num_vertices: int,
    adjacency: list[list[int]],
    seeds: tuple[int, ...],
) -> int:
    """Number of vertices reachable from ``seeds`` given a fixed adjacency."""
    visited = [False] * num_vertices
    queue: deque[int] = deque()
    for seed in seeds:
        if not visited[seed]:
            visited[seed] = True
            queue.append(seed)
    count = len(queue)
    while queue:
        vertex = queue.popleft()
        for target in adjacency[vertex]:
            if not visited[target]:
                visited[target] = True
                count += 1
                queue.append(target)
    return count


def exact_spread(graph: InfluenceGraph, seeds: tuple[int, ...] | list[int] | set[int]) -> float:
    """Exact influence spread ``Inf(seeds)`` by live-edge enumeration.

    Raises
    ------
    InvalidParameterError
        If the graph has more than :data:`MAX_EXACT_EDGES` edges.
    """
    seed_tuple = normalize_seed_set(seeds, graph.num_vertices)
    m = graph.num_edges
    if m > MAX_EXACT_EDGES:
        raise InvalidParameterError(
            f"exact_spread supports at most {MAX_EXACT_EDGES} edges, got {m}"
        )
    sources, targets, probs = graph.edge_arrays()
    total = 0.0
    for mask in range(1 << m):
        probability = 1.0
        adjacency: list[list[int]] = [[] for _ in range(graph.num_vertices)]
        for edge_index in range(m):
            if mask & (1 << edge_index):
                probability *= probs[edge_index]
                adjacency[int(sources[edge_index])].append(int(targets[edge_index]))
            else:
                probability *= 1.0 - probs[edge_index]
        if probability == 0.0:
            continue
        total += probability * _reachable_in_realization(
            graph.num_vertices, adjacency, seed_tuple
        )
    return total


def exact_optimal_seed_set(
    graph: InfluenceGraph, k: int
) -> tuple[tuple[int, ...], float]:
    """Exhaustively find the spread-optimal seed set of size ``k``.

    Only feasible for tiny graphs; used to check the greedy approximation
    guarantee ``Inf(greedy) >= (1 - 1/e) * OPT`` in tests.
    """
    require_positive_int(k, "k")
    if k > graph.num_vertices:
        raise InvalidParameterError(
            f"k ({k}) cannot exceed the number of vertices ({graph.num_vertices})"
        )
    best_set: tuple[int, ...] = ()
    best_value = -1.0
    for candidate in combinations(range(graph.num_vertices), k):
        value = exact_spread(graph, candidate)
        if value > best_value:
            best_value = value
            best_set = candidate
    return best_set, best_value
