"""Compressed sparse row (CSR) representation of an influence graph.

An *influence graph* ``G = (V, E, p)`` is a directed graph whose edges carry
influence probabilities ``p : E -> (0, 1]`` (Section 2.1 of the paper).  The
class below stores both the forward adjacency (out-edges, used by forward
cascade simulation and snapshot reachability) and the reverse adjacency
(in-edges, used by reverse-reachable-set generation) as CSR arrays, so that
the neighbourhood of a vertex is a contiguous ``numpy`` slice.

Vertices are integers ``0 .. n-1``.  Parallel edges are permitted (the paper's
Karate network counts each undirected edge as two directed edges, and some
KONECT exports contain multi-edges); self-loops are rejected because they can
never change reachability and would only distort traversal-cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import GraphConstructionError, InvalidProbabilityError
from .._validation import require_vertex


#: Per-vertex adjacency rows ``(endpoints, probabilities)`` as Python lists.
CsrRows = tuple[list[list[int]], list[list[float]]]


def _csr_rows(indptr: np.ndarray, endpoints: np.ndarray, probabilities: np.ndarray) -> CsrRows:
    """Split a CSR adjacency into per-vertex Python-list rows."""
    bounds = indptr.tolist()
    endpoint_list = endpoints.tolist()
    probability_list = probabilities.tolist()
    spans = list(zip(bounds, bounds[1:]))
    return (
        [endpoint_list[start:stop] for start, stop in spans],
        [probability_list[start:stop] for start, stop in spans],
    )


@dataclass(frozen=True)
class EdgeView:
    """A single directed edge with its influence probability."""

    source: int
    target: int
    probability: float


class InfluenceGraph:
    """Directed influence graph stored in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertex ids are ``0 .. n-1``.
    sources, targets:
        Parallel integer arrays of length ``m`` giving edge endpoints.
    probabilities:
        Array of length ``m`` of influence probabilities in ``(0, 1]``.  If
        omitted, every edge receives probability ``1.0`` (a deterministic
        graph), which is convenient for plain reachability computations.
    name:
        Optional human-readable name used in reports.

    Notes
    -----
    Construction sorts edges by source (forward CSR) and by target (reverse
    CSR); the original edge order is not preserved.  The instance is
    immutable: probability re-assignment returns a new graph
    (see :meth:`with_probabilities`).
    """

    def __init__(
        self,
        num_vertices: int,
        sources: Sequence[int] | np.ndarray,
        targets: Sequence[int] | np.ndarray,
        probabilities: Sequence[float] | np.ndarray | None = None,
        *,
        name: str = "graph",
    ) -> None:
        if num_vertices < 0:
            raise GraphConstructionError(f"num_vertices must be >= 0, got {num_vertices}")
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise GraphConstructionError(
                "sources and targets must be one-dimensional arrays of equal length"
            )
        if probabilities is None:
            prob = np.ones(src.shape[0], dtype=np.float64)
        else:
            prob = np.asarray(probabilities, dtype=np.float64)
            if prob.shape != src.shape:
                raise GraphConstructionError(
                    "probabilities must have the same length as sources/targets"
                )
        if src.size:
            if src.min(initial=0) < 0 or dst.min(initial=0) < 0:
                raise GraphConstructionError("vertex ids must be non-negative")
            if src.max(initial=-1) >= num_vertices or dst.max(initial=-1) >= num_vertices:
                raise GraphConstructionError(
                    "edge endpoint exceeds num_vertices - 1"
                )
            if np.any(src == dst):
                raise GraphConstructionError("self-loops are not supported")
            if np.any(prob <= 0.0) or np.any(prob > 1.0):
                raise InvalidProbabilityError(
                    "edge probabilities must lie in the half-open interval (0, 1]"
                )

        self._name = str(name)
        self._num_vertices = int(num_vertices)
        self._num_edges = int(src.shape[0])

        forward_order = np.argsort(src, kind="stable")
        self._out_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(self._out_indptr, src + 1, 1)
        np.cumsum(self._out_indptr, out=self._out_indptr)
        self._out_targets = dst[forward_order].astype(np.int64, copy=True)
        self._out_probs = prob[forward_order].astype(np.float64, copy=True)

        reverse_order = np.argsort(dst, kind="stable")
        self._in_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(self._in_indptr, dst + 1, 1)
        np.cumsum(self._in_indptr, out=self._in_indptr)
        self._in_sources = src[reverse_order].astype(np.int64, copy=True)
        self._in_probs = prob[reverse_order].astype(np.float64, copy=True)

        # Retain the source column of the forward ordering so that edges()
        # and transpose() can be reconstructed cheaply.
        self._edge_sources = src[forward_order].astype(np.int64, copy=True)
        self._transpose_cache: "InfluenceGraph | None" = None
        self._out_rows: "CsrRows | None" = None
        self._in_rows: "CsrRows | None" = None

        for array in (
            self._out_indptr,
            self._out_targets,
            self._out_probs,
            self._in_indptr,
            self._in_sources,
            self._in_probs,
            self._edge_sources,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Human-readable graph name."""
        return self._name

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (parallel edges counted separately)."""
        return self._num_edges

    @property
    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self._num_vertices)

    @property
    def expected_live_edges(self) -> float:
        """``m~ = sum_e p(e)``: the expected number of live edges in a snapshot."""
        return float(self._out_probs.sum())

    # ------------------------------------------------------------------ #
    # adjacency access
    # ------------------------------------------------------------------ #
    def out_neighbors(self, vertex: int) -> np.ndarray:
        """Targets of all out-edges of ``vertex`` (read-only array view)."""
        v = require_vertex(vertex, self._num_vertices)
        return self._out_targets[self._out_indptr[v] : self._out_indptr[v + 1]]

    def out_probabilities(self, vertex: int) -> np.ndarray:
        """Probabilities of all out-edges of ``vertex``, aligned with out_neighbors."""
        v = require_vertex(vertex, self._num_vertices)
        return self._out_probs[self._out_indptr[v] : self._out_indptr[v + 1]]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """Sources of all in-edges of ``vertex`` (read-only array view)."""
        v = require_vertex(vertex, self._num_vertices)
        return self._in_sources[self._in_indptr[v] : self._in_indptr[v + 1]]

    def in_probabilities(self, vertex: int) -> np.ndarray:
        """Probabilities of all in-edges of ``vertex``, aligned with in_neighbors."""
        v = require_vertex(vertex, self._num_vertices)
        return self._in_probs[self._in_indptr[v] : self._in_indptr[v + 1]]

    def out_degree(self, vertex: int) -> int:
        """Out-degree ``d+(vertex)``."""
        v = require_vertex(vertex, self._num_vertices)
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, vertex: int) -> int:
        """In-degree ``d-(vertex)``."""
        v = require_vertex(vertex, self._num_vertices)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Array of all out-degrees."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of all in-degrees."""
        return np.diff(self._in_indptr)

    # raw CSR views used by the diffusion kernels -------------------------------
    @property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward CSR triple ``(indptr, targets, probabilities)``."""
        return self._out_indptr, self._out_targets, self._out_probs

    @property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reverse CSR triple ``(indptr, sources, probabilities)``."""
        return self._in_indptr, self._in_sources, self._in_probs

    @property
    def out_rows(self) -> CsrRows:
        """Forward adjacency as per-vertex Python lists ``(targets, probabilities)``.

        ``targets[v]`` and ``probabilities[v]`` are ``v``'s forward-CSR row.
        The scalar kernels walk these instead of numpy slices, because
        indexing a numpy scalar from Python costs about 100 ns per edge.
        Built on first use and cached; pickling drops the cache.
        """
        if self._out_rows is None:
            self._out_rows = _csr_rows(self._out_indptr, self._out_targets, self._out_probs)
        return self._out_rows

    @property
    def in_rows(self) -> CsrRows:
        """Reverse adjacency as per-vertex Python lists ``(sources, probabilities)``.

        The in-edge counterpart of :attr:`out_rows`, with the same caching.
        """
        if self._in_rows is None:
            self._in_rows = _csr_rows(self._in_indptr, self._in_sources, self._in_probs)
        return self._in_rows

    # ------------------------------------------------------------------ #
    # iteration and derived graphs
    # ------------------------------------------------------------------ #
    def edges(self) -> Iterator[EdgeView]:
        """Iterate over all edges in forward-CSR order."""
        for index in range(self._num_edges):
            yield EdgeView(
                source=int(self._edge_sources[index]),
                target=int(self._out_targets[index]),
                probability=float(self._out_probs[index]),
            )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return copies of (sources, targets, probabilities) in forward-CSR order."""
        return (
            self._edge_sources.copy(),
            self._out_targets.copy(),
            self._out_probs.copy(),
        )

    def transpose(self) -> "InfluenceGraph":
        """Return the transposed influence graph ``G^T`` (all edges reversed).

        The transpose is built once and cached: both graphs are immutable, so
        repeated callers (reverse sampling over a shared graph, sketch
        construction) share one CSR instead of re-sorting the edge arrays.
        """
        if self._transpose_cache is None:
            self._transpose_cache = InfluenceGraph(
                self._num_vertices,
                self._out_targets,
                self._edge_sources,
                self._out_probs,
                name=f"{self._name}^T",
            )
        return self._transpose_cache

    def with_probabilities(
        self, probabilities: Sequence[float] | np.ndarray, *, name: str | None = None
    ) -> "InfluenceGraph":
        """Return a copy of this graph with per-edge probabilities replaced.

        ``probabilities`` must be aligned with forward-CSR edge order (the
        order produced by :meth:`edges` and :meth:`edge_arrays`).
        """
        return InfluenceGraph(
            self._num_vertices,
            self._edge_sources,
            self._out_targets,
            probabilities,
            name=self._name if name is None else name,
        )

    def with_name(self, name: str) -> "InfluenceGraph":
        """Return the same graph under a different display name."""
        return InfluenceGraph(
            self._num_vertices,
            self._edge_sources,
            self._out_targets,
            self._out_probs,
            name=name,
        )

    def subgraph(self, keep: Iterable[int], *, name: str | None = None) -> "InfluenceGraph":
        """Return the induced subgraph on the vertex subset ``keep``.

        Vertices are relabelled ``0 .. len(keep)-1`` in sorted order of their
        original ids.
        """
        kept = sorted({require_vertex(v, self._num_vertices) for v in keep})
        relabel = {old: new for new, old in enumerate(kept)}
        mask = np.zeros(self._num_vertices, dtype=bool)
        mask[kept] = True
        edge_mask = mask[self._edge_sources] & mask[self._out_targets]
        new_sources = np.array(
            [relabel[int(v)] for v in self._edge_sources[edge_mask]], dtype=np.int64
        )
        new_targets = np.array(
            [relabel[int(v)] for v in self._out_targets[edge_mask]], dtype=np.int64
        )
        return InfluenceGraph(
            len(kept),
            new_sources,
            new_targets,
            self._out_probs[edge_mask],
            name=f"{self._name}[{len(kept)}]" if name is None else name,
        )

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # Drop the cached transpose and rows so pickling a graph (e.g.
        # shipping it to parallel-runtime workers) never grows the payload.
        # The row keys are left out entirely; __setstate__ restores them empty.
        state = self.__dict__.copy()
        state["_transpose_cache"] = None
        del state["_out_rows"], state["_in_rows"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _out_rows=None, _in_rows=None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InfluenceGraph(name={self._name!r}, n={self._num_vertices}, "
            f"m={self._num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfluenceGraph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and self._num_edges == other._num_edges
            and np.array_equal(self._edge_sources, other._edge_sources)
            and np.array_equal(self._out_targets, other._out_targets)
            and np.allclose(self._out_probs, other._out_probs)
        )

    def __hash__(self) -> int:
        return hash((self._num_vertices, self._num_edges, self._name))
