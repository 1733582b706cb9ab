"""Random-graph generators used to build synthetic and proxy networks.

The paper evaluates two Barabási–Albert graphs (``BA_s`` with ``M = 1`` and
``BA_d`` with ``M = 11``, random edge directions) and six real networks.  The
real networks beyond Zachary's karate club are not bundled here, so the
dataset registry (:mod:`repro.graphs.datasets`) substitutes structurally
similar synthetic proxies built from the generators in this module:

* :func:`barabasi_albert` — preferential attachment, scale-free degrees.
* :func:`erdos_renyi` — the G(n, p) baseline with no structure.
* :func:`watts_strogatz` — small-world rewired ring lattice.
* :func:`powerlaw_cluster` — Holme–Kim preferential attachment with triad
  formation, giving both scale-free degrees and high clustering (used for the
  ca-GrQc collaboration-network proxy).
* :func:`directed_scale_free` — directed preferential attachment with
  separate in/out exponents (used for the Wiki-Vote / com-Youtube /
  soc-Pokec proxies).
* :func:`core_whisker` — an explicit core + whiskers construction that
  realises the "core-whisker" decomposition the paper uses to explain
  Figure 5 and Table 8.

All generators are deterministic functions of their ``seed`` argument and
return deterministic-topology :class:`InfluenceGraph` instances whose edge
probabilities are all 1.0; apply a probability model afterwards.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from .._validation import (
    require_non_negative_int,
    require_positive_int,
    require_positive_real,
    require_probability,
)
from .builder import GraphBuilder
from .influence_graph import InfluenceGraph


def _orient_randomly(
    undirected_edges: list[tuple[int, int]],
    rng: np.random.Generator,
    *,
    both_directions: bool = False,
) -> list[tuple[int, int]]:
    """Assign a random direction to each undirected edge.

    When ``both_directions`` is ``True`` every edge is emitted in both
    directions instead (symmetrised social networks such as Karate).
    """
    directed: list[tuple[int, int]] = []
    for u, v in undirected_edges:
        if both_directions:
            directed.append((u, v))
            directed.append((v, u))
        elif rng.random() < 0.5:
            directed.append((u, v))
        else:
            directed.append((v, u))
    return directed


def _build(
    edges: list[tuple[int, int]], num_vertices: int, name: str
) -> InfluenceGraph:
    # Self-loops are dropped; InfluenceGraph validates the endpoint ranges.
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return InfluenceGraph(num_vertices, pairs[:, 0], pairs[:, 1], name=name)


# --------------------------------------------------------------------------- #
# classic models
# --------------------------------------------------------------------------- #
def erdos_renyi(
    num_vertices: int,
    edge_probability: float,
    *,
    seed: int = 0,
    directed: bool = True,
    name: str | None = None,
) -> InfluenceGraph:
    """Erdős–Rényi ``G(n, p)`` random graph.

    Each ordered pair (directed) or unordered pair (undirected, then randomly
    oriented) is an edge independently with probability ``edge_probability``.
    """
    n = require_positive_int(num_vertices, "num_vertices")
    p = require_probability(edge_probability, "edge_probability", allow_zero=True)
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    if directed:
        for u in range(n):
            targets = np.nonzero(rng.random(n) < p)[0]
            edges.extend((u, int(v)) for v in targets if int(v) != u)
    else:
        undirected: list[tuple[int, int]] = []
        for u in range(n):
            draws = rng.random(n - u - 1)
            for offset, x in enumerate(draws):
                if x < p:
                    undirected.append((u, u + 1 + offset))
        edges = _orient_randomly(undirected, rng, both_directions=True)
    return _build(edges, n, name or f"er_{n}_{p:g}")


def barabasi_albert(
    num_vertices: int,
    attachment: int,
    *,
    seed: int = 0,
    orient: str = "random",
    name: str | None = None,
) -> InfluenceGraph:
    """Barabási–Albert preferential-attachment graph (Section 4.2.2).

    Starting from a clique on ``attachment + 1`` vertices, each new vertex
    attaches to ``attachment`` existing vertices chosen with probability
    proportional to their current degree.  Following the paper, the resulting
    undirected edges are given random directions (``orient="random"``);
    ``orient="both"`` symmetrises instead.
    """
    n = require_positive_int(num_vertices, "num_vertices")
    m_attach = require_positive_int(attachment, "attachment")
    if m_attach >= n:
        raise InvalidParameterError(
            f"attachment ({m_attach}) must be smaller than num_vertices ({n})"
        )
    if orient not in ("random", "both"):
        raise InvalidParameterError(f"orient must be 'random' or 'both', got {orient!r}")
    rng = np.random.default_rng(seed)

    undirected: list[tuple[int, int]] = []
    # Repeated-endpoint list: drawing uniformly from it realises degree-
    # proportional (preferential) attachment.
    repeated_endpoints: list[int] = []
    initial = m_attach + 1
    for u in range(initial):
        for v in range(u + 1, initial):
            undirected.append((u, v))
            repeated_endpoints.extend((u, v))
    for new_vertex in range(initial, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            pick = repeated_endpoints[int(rng.integers(len(repeated_endpoints)))]
            chosen.add(pick)
        # Sorted: the append order feeds repeated_endpoints and therefore
        # every later draw — set order would make the graph depend on the
        # interpreter's hashing.
        for existing in sorted(chosen):
            undirected.append((new_vertex, existing))
            repeated_endpoints.extend((new_vertex, existing))
    edges = _orient_randomly(undirected, rng, both_directions=(orient == "both"))
    return _build(edges, n, name or f"ba_{n}_{m_attach}")


def watts_strogatz(
    num_vertices: int,
    nearest_neighbors: int,
    rewiring_probability: float,
    *,
    seed: int = 0,
    name: str | None = None,
) -> InfluenceGraph:
    """Watts–Strogatz small-world graph, randomly oriented.

    A ring lattice where each vertex connects to its ``nearest_neighbors``
    nearest neighbours (must be even), with each edge rewired to a uniformly
    random endpoint with probability ``rewiring_probability``.
    """
    n = require_positive_int(num_vertices, "num_vertices")
    k = require_positive_int(nearest_neighbors, "nearest_neighbors")
    beta = require_probability(rewiring_probability, "rewiring_probability", allow_zero=True)
    if k % 2 != 0 or k >= n:
        raise InvalidParameterError(
            f"nearest_neighbors must be even and < num_vertices, got {k} (n={n})"
        )
    rng = np.random.default_rng(seed)
    existing: set[tuple[int, int]] = set()
    undirected: list[tuple[int, int]] = []
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            key = (min(u, v), max(u, v))
            if key not in existing:
                existing.add(key)
                undirected.append(key)
    rewired: list[tuple[int, int]] = []
    edge_set = set(undirected)
    for u, v in undirected:
        if rng.random() < beta:
            for _ in range(10 * n):
                w = int(rng.integers(n))
                candidate = (min(u, w), max(u, w))
                if w != u and candidate not in edge_set:
                    edge_set.discard((u, v))
                    edge_set.add(candidate)
                    rewired.append(candidate)
                    break
            else:  # give up rewiring this edge after many collisions
                rewired.append((u, v))
        else:
            rewired.append((u, v))
    edges = _orient_randomly(rewired, rng, both_directions=True)
    return _build(edges, n, name or f"ws_{n}_{k}_{beta:g}")


def powerlaw_cluster(
    num_vertices: int,
    attachment: int,
    triangle_probability: float,
    *,
    seed: int = 0,
    name: str | None = None,
) -> InfluenceGraph:
    """Holme–Kim power-law cluster graph, symmetrised to a directed graph.

    Preferential attachment where, after each attachment step, a triad is
    closed with probability ``triangle_probability``.  Produces scale-free
    degree distributions with high clustering, which is the combination of
    properties the paper attributes to collaboration networks (ca-GrQc).
    """
    n = require_positive_int(num_vertices, "num_vertices")
    m_attach = require_positive_int(attachment, "attachment")
    p_triangle = require_probability(triangle_probability, "triangle_probability", allow_zero=True)
    if m_attach >= n:
        raise InvalidParameterError(
            f"attachment ({m_attach}) must be smaller than num_vertices ({n})"
        )
    rng = np.random.default_rng(seed)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    repeated_endpoints: list[int] = []
    undirected: list[tuple[int, int]] = []

    def connect(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)
        undirected.append((u, v))
        repeated_endpoints.extend((u, v))

    initial = m_attach + 1
    for u in range(initial):
        for v in range(u + 1, initial):
            connect(u, v)
    for new_vertex in range(initial, n):
        added = 0
        last_target: int | None = None
        while added < m_attach:
            close_triangle = (
                last_target is not None
                and adjacency[last_target]
                and rng.random() < p_triangle
            )
            if close_triangle:
                neighbour_pool = [
                    w for w in adjacency[last_target] if w not in adjacency[new_vertex] and w != new_vertex
                ]
                if neighbour_pool:
                    target = neighbour_pool[int(rng.integers(len(neighbour_pool)))]
                else:
                    target = repeated_endpoints[int(rng.integers(len(repeated_endpoints)))]
            else:
                target = repeated_endpoints[int(rng.integers(len(repeated_endpoints)))]
            if target != new_vertex and target not in adjacency[new_vertex]:
                connect(new_vertex, target)
                last_target = target
                added += 1
    edges = _orient_randomly(undirected, rng, both_directions=True)
    return _build(edges, n, name or f"plc_{n}_{m_attach}_{p_triangle:g}")


def directed_scale_free(
    num_vertices: int,
    average_out_degree: float,
    *,
    seed: int = 0,
    hub_bias: float = 0.75,
    name: str | None = None,
) -> InfluenceGraph:
    """Directed graph with heavy-tailed in-degree distribution.

    Each vertex emits a Poisson-distributed number of out-edges (mean
    ``average_out_degree``); each edge's target is chosen preferentially with
    probability ``hub_bias`` (proportional to current in-degree plus one) and
    uniformly otherwise.  This produces the hub-dominated in-degree profile of
    voting and follower networks (Wiki-Vote, soc-Pokec) at configurable size.
    """
    n = require_positive_int(num_vertices, "num_vertices")
    mean_degree = require_positive_real(average_out_degree, "average_out_degree")
    bias = require_probability(hub_bias, "hub_bias", allow_zero=True)
    rng = np.random.default_rng(seed)
    # in_degree_plus_one acts as the preferential-attachment weight.
    weights = np.ones(n, dtype=np.float64)
    edges: list[tuple[int, int]] = []
    for source in range(n):
        out_degree = int(rng.poisson(mean_degree))
        if out_degree == 0:
            continue
        # The weights only change after this source's targets are drawn, so
        # one CDF serves all its preferential draws.  It is the CDF that
        # Generator.choice(n, p=weights / weights.sum()) builds, drawn with the
        # same single random(): same stream, same edges (docs/DESIGN.md).
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        wanted = min(out_degree, n - 1)
        max_attempts = 20 * out_degree + 50
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < wanted and attempts < max_attempts:
            attempts += 1
            if rng.random() < bias:
                target = int(cdf.searchsorted(rng.random(), side="right"))
            else:
                target = int(rng.integers(n))
            if target != source and target not in chosen:
                chosen.add(target)
        # Sorted so the edge list (a result) is independent of set order.
        for target in sorted(chosen):
            edges.append((source, target))
            weights[target] += 1.0
    return _build(edges, n, name or f"dsf_{n}_{average_out_degree:g}")


def core_whisker(
    core_size: int,
    num_whiskers: int,
    whisker_length: int,
    *,
    core_degree: int = 8,
    seed: int = 0,
    name: str | None = None,
) -> InfluenceGraph:
    """Graph with an expander-like core and tree-like whiskers (Section 4.2.1).

    The core is a random ``core_degree``-regular-ish graph on ``core_size``
    vertices (each core vertex draws ``core_degree`` partners).  Each of the
    ``num_whiskers`` whiskers is a path of ``whisker_length`` vertices hanging
    off a random core vertex.  Under high uniform probabilities a giant
    component forms inside the core while the whiskers shatter, which is the
    structure the paper uses to explain fast convergence on ca-GrQc (uc0.1).
    """
    core_n = require_positive_int(core_size, "core_size")
    whiskers = require_non_negative_int(num_whiskers, "num_whiskers")
    length = require_positive_int(whisker_length, "whisker_length") if whiskers else 0
    degree = require_positive_int(core_degree, "core_degree")
    rng = np.random.default_rng(seed)
    undirected: set[tuple[int, int]] = set()
    for u in range(core_n):
        partners = rng.choice(core_n, size=min(degree, core_n - 1), replace=False)
        for v in partners:
            v = int(v)
            if v != u:
                undirected.add((min(u, v), max(u, v)))
    total = core_n + whiskers * length
    next_vertex = core_n
    for _ in range(whiskers):
        anchor = int(rng.integers(core_n))
        previous = anchor
        for _ in range(length):
            undirected.add((min(previous, next_vertex), max(previous, next_vertex)))
            previous = next_vertex
            next_vertex += 1
    rng_orient = np.random.default_rng(seed + 1)
    edges = _orient_randomly(sorted(undirected), rng_orient, both_directions=True)
    return _build(edges, total, name or f"core_whisker_{core_n}_{whiskers}x{length}")


def star(num_leaves: int, *, outward: bool = True, name: str | None = None) -> InfluenceGraph:
    """Star graph: vertex 0 connected to ``num_leaves`` leaves.

    A minimal fixture where the optimal single seed is unambiguous; used
    heavily in tests and the quickstart example.
    """
    leaves = require_positive_int(num_leaves, "num_leaves")
    builder = GraphBuilder(leaves + 1)
    for leaf in range(1, leaves + 1):
        if outward:
            builder.add_edge(0, leaf)
        else:
            builder.add_edge(leaf, 0)
    return builder.build(name=name or f"star_{leaves}")


def path(num_vertices: int, *, name: str | None = None) -> InfluenceGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    n = require_positive_int(num_vertices, "num_vertices")
    builder = GraphBuilder(n)
    for u in range(n - 1):
        builder.add_edge(u, u + 1)
    return builder.build(name=name or f"path_{n}")


def complete(num_vertices: int, *, name: str | None = None) -> InfluenceGraph:
    """Complete directed graph (every ordered pair is an edge)."""
    n = require_positive_int(num_vertices, "num_vertices")
    builder = GraphBuilder(n)
    for u in range(n):
        for v in range(n):
            if u != v:
                builder.add_edge(u, v)
    return builder.build(name=name or f"complete_{n}")
