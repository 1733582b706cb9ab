"""Network statistics used in Table 3 of the paper.

Table 3 reports, per network: ``n``, ``m``, maximum out-degree, maximum
in-degree, (global) clustering coefficient, and average distance.  This
module computes all of them on :class:`InfluenceGraph` instances without any
external graph library, plus a few extra summaries (degree percentiles,
weak-connectivity) that the experiment reports use for context.

Clustering coefficient follows the paper's definition: three times the number
of triangles divided by the number of connected triplets, computed on the
undirected simple projection of the graph.  Average distance is the mean
shortest-path length over reachable ordered pairs of the undirected
projection; for large graphs it is estimated from a random sample of source
vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .._validation import require_positive_int
from .influence_graph import InfluenceGraph


@dataclass(frozen=True)
class NetworkStatistics:
    """Summary statistics of one influence graph (one row of Table 3)."""

    name: str
    num_vertices: int
    num_edges: int
    max_out_degree: int
    max_in_degree: int
    clustering_coefficient: float
    average_distance: float
    expected_live_edges: float
    num_weak_components: int
    largest_weak_component: int

    def as_row(self) -> dict[str, object]:
        """Return the statistics as a flat dictionary for table rendering."""
        return {
            "network": self.name,
            "n": self.num_vertices,
            "m": self.num_edges,
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "clustering_coefficient": round(self.clustering_coefficient, 4),
            "average_distance": round(self.average_distance, 4),
            "expected_live_edges": round(self.expected_live_edges, 4),
            "num_weak_components": self.num_weak_components,
            "largest_weak_component": self.largest_weak_component,
        }


def _undirected_adjacency(graph: InfluenceGraph) -> list[set[int]]:
    """Simple undirected adjacency sets (parallel edges and directions collapsed)."""
    adjacency: list[set[int]] = [set() for _ in range(graph.num_vertices)]
    sources, targets, _ = graph.edge_arrays()
    for u, v in zip(sources.tolist(), targets.tolist()):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def clustering_coefficient(graph: InfluenceGraph) -> float:
    """Global clustering coefficient: 3 * triangles / connected triplets."""
    adjacency = _undirected_adjacency(graph)
    triangles = 0
    triplets = 0
    for u in range(graph.num_vertices):
        neighbours = adjacency[u]
        degree = len(neighbours)
        triplets += degree * (degree - 1) // 2
        for v in neighbours:
            if v > u:
                # Count triangles once per closing vertex pair above u.
                common = neighbours & adjacency[v]
                triangles += sum(1 for w in common if w > v)
    if triplets == 0:
        return 0.0
    return 3.0 * triangles / triplets


def _bfs_distances(adjacency: list[set[int]], source: int) -> dict[int, int]:
    """Hop distances from ``source`` over the undirected adjacency."""
    distances = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in distances:
                distances[v] = distances[u] + 1
                queue.append(v)
    return distances


def average_distance(
    graph: InfluenceGraph, *, max_sources: int = 200, seed: int = 0
) -> float:
    """Mean shortest-path distance over reachable ordered pairs.

    Exact when ``n <= max_sources``; otherwise estimated from BFS trees rooted
    at ``max_sources`` uniformly sampled vertices.
    """
    require_positive_int(max_sources, "max_sources")
    if graph.num_vertices <= 1:
        return 0.0
    adjacency = _undirected_adjacency(graph)
    if graph.num_vertices <= max_sources:
        sources = list(range(graph.num_vertices))
    else:
        rng = np.random.default_rng(seed)
        sources = rng.choice(graph.num_vertices, size=max_sources, replace=False).tolist()
    total = 0
    count = 0
    for source in sources:
        for target, distance in _bfs_distances(adjacency, int(source)).items():
            if target != source:
                total += distance
                count += 1
    if count == 0:
        return 0.0
    return total / count


def weak_components(graph: InfluenceGraph) -> list[list[int]]:
    """Weakly connected components as lists of vertex ids (largest first)."""
    adjacency = _undirected_adjacency(graph)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    components: list[list[int]] = []
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        queue: deque[int] = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
                    queue.append(v)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def network_statistics(
    graph: InfluenceGraph, *, max_distance_sources: int = 200, seed: int = 0
) -> NetworkStatistics:
    """Compute the full Table 3 row (plus extras) for ``graph``."""
    components = weak_components(graph)
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    return NetworkStatistics(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_out_degree=int(out_deg.max(initial=0)),
        max_in_degree=int(in_deg.max(initial=0)),
        clustering_coefficient=clustering_coefficient(graph),
        average_distance=average_distance(
            graph, max_sources=max_distance_sources, seed=seed
        ),
        expected_live_edges=graph.expected_live_edges,
        num_weak_components=len(components),
        largest_weak_component=len(components[0]) if components else 0,
    )
