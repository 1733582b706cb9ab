"""Incremental construction of :class:`~repro.graphs.influence_graph.InfluenceGraph`.

The builder accumulates edges one at a time (or in bulk) and produces an
immutable CSR graph at the end.  It is the single entry point used by the
edge-list reader, the random-graph generators, and the dataset registry, so
validation (self-loops, probability range, duplicate handling) lives in one
place.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import GraphConstructionError
from .._validation import require_probability
from .influence_graph import InfluenceGraph


#: Valid duplicate-edge policies for :class:`GraphBuilder` and the edge-list
#: reader: reject with an error, keep only the first or the last occurrence's
#: probability, or keep genuine parallel edges.
DUPLICATE_POLICIES: tuple[str, ...] = ("error", "first", "last", "allow")


class GraphBuilder:
    """Accumulates directed edges and builds an :class:`InfluenceGraph`.

    Parameters
    ----------
    num_vertices:
        Optional fixed vertex count.  If omitted, the vertex count is inferred
        as ``max(endpoint) + 1`` when :meth:`build` is called.
    default_probability:
        Probability assigned to edges added without an explicit probability.
    allow_duplicate_edges:
        Legacy boolean shorthand: ``True`` is ``on_duplicate="allow"``,
        ``False`` (default) is ``on_duplicate="error"``.
    on_duplicate:
        What to do when the same ``(source, target)`` pair is added twice:
        ``"error"`` (default) raises a :class:`GraphConstructionError`
        naming the edge (and the reader's line, when provided via
        ``add_edge(context=...)``); ``"first"`` silently keeps the first
        occurrence; ``"last"`` keeps the edge at its first position but takes
        the probability of the last occurrence; ``"allow"`` keeps genuine
        parallel edges (one coin flip each — only correct when the input
        really contains multi-edges, e.g. interaction multigraphs).
    """

    def __init__(
        self,
        num_vertices: int | None = None,
        *,
        default_probability: float = 1.0,
        allow_duplicate_edges: bool = False,
        on_duplicate: str | None = None,
    ) -> None:
        if num_vertices is not None and num_vertices < 0:
            raise GraphConstructionError(f"num_vertices must be >= 0, got {num_vertices}")
        self._num_vertices = num_vertices
        self._default_probability = require_probability(
            default_probability, "default_probability"
        )
        if on_duplicate is None:
            on_duplicate = "allow" if allow_duplicate_edges else "error"
        elif on_duplicate not in DUPLICATE_POLICIES:
            raise GraphConstructionError(
                f"on_duplicate must be one of {DUPLICATE_POLICIES}, got {on_duplicate!r}"
            )
        elif allow_duplicate_edges and on_duplicate != "allow":
            raise GraphConstructionError(
                "allow_duplicate_edges=True conflicts with "
                f"on_duplicate={on_duplicate!r}; pass only one of the two"
            )
        self._on_duplicate = on_duplicate
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._probabilities: list[float] = []
        #: ``(source, target) -> (edge index, context of the first add)``.
        self._seen: dict[tuple[int, int], tuple[int, str | None]] = {}

    @property
    def _allow_duplicates(self) -> bool:
        return self._on_duplicate == "allow"

    # ------------------------------------------------------------------ #
    def add_edge(
        self,
        source: int,
        target: int,
        probability: float | None = None,
        *,
        context: str | None = None,
    ) -> None:
        """Add one directed edge ``source -> target``.

        ``context`` is an optional provenance string (e.g. ``"line 7"`` from
        the edge-list reader) that prefixes every error this edge raises, so
        the offending input location is named.

        Raises
        ------
        GraphConstructionError
            If the edge has a negative endpoint, is a self-loop, repeats an
            existing edge under the ``"error"`` duplicate policy, or has
            endpoints outside a fixed vertex count.
        InvalidParameterError
            If ``probability`` is not a real number in ``(0, 1]``.
        """
        where = f"{context}: " if context else ""
        src = int(source)
        dst = int(target)
        if src < 0 or dst < 0:
            raise GraphConstructionError(
                f"{where}vertex ids must be non-negative, got ({src}, {dst})"
            )
        if src == dst:
            raise GraphConstructionError(f"{where}self-loop ({src}, {dst}) is not supported")
        if self._num_vertices is not None and (
            src >= self._num_vertices or dst >= self._num_vertices
        ):
            raise GraphConstructionError(
                f"{where}edge ({src}, {dst}) exceeds fixed vertex count {self._num_vertices}"
            )
        prob = (
            self._default_probability
            if probability is None
            else require_probability(probability, f"{where}probability")
        )
        if self._on_duplicate != "allow":
            key = (src, dst)
            earlier = self._seen.get(key)
            if earlier is not None:
                earlier_index, earlier_context = earlier
                if self._on_duplicate == "error":
                    first_seen = (
                        f" (first listed at {earlier_context})" if earlier_context else ""
                    )
                    raise GraphConstructionError(
                        f"{where}duplicate edge ({src}, {dst}){first_seen}; one social "
                        "tie must receive one coin flip — pass on_duplicate="
                        '"first"/"last" to deduplicate or "allow" to keep parallel edges'
                    )
                if self._on_duplicate == "last":
                    self._probabilities[earlier_index] = prob
                return
            self._seen[key] = (len(self._sources), context)
        self._sources.append(src)
        self._targets.append(dst)
        self._probabilities.append(prob)

    def add_edges(
        self, edges: Iterable[tuple[int, int] | tuple[int, int, float]]
    ) -> None:
        """Add many edges; each item is ``(source, target)`` or ``(source, target, p)``."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            elif len(edge) == 3:
                self.add_edge(edge[0], edge[1], edge[2])
            else:
                raise GraphConstructionError(
                    f"edge tuples must have 2 or 3 elements, got {edge!r}"
                )

    def add_undirected_edge(
        self,
        u: int,
        v: int,
        probability: float | None = None,
        *,
        context: str | None = None,
    ) -> None:
        """Add both directions of an undirected edge ``{u, v}``."""
        self.add_edge(u, v, probability, context=context)
        self.add_edge(v, u, probability, context=context)

    def has_edge(self, source: int, target: int) -> bool:
        """Return whether ``source -> target`` was already added (tracked only
        when duplicate edges are disallowed)."""
        if self._allow_duplicates:
            raise GraphConstructionError(
                'has_edge is only tracked when the duplicate policy is not "allow"'
            )
        return (int(source), int(target)) in self._seen

    def build(self, *, name: str = "graph") -> InfluenceGraph:
        """Construct the immutable CSR influence graph."""
        if self._num_vertices is not None:
            n = self._num_vertices
        elif self._sources:
            n = int(max(max(self._sources), max(self._targets)) + 1)
        else:
            n = 0
        return InfluenceGraph(
            n,
            np.asarray(self._sources, dtype=np.int64),
            np.asarray(self._targets, dtype=np.int64),
            np.asarray(self._probabilities, dtype=np.float64),
            name=name,
        )


def graph_from_edge_list(
    edges: Sequence[tuple[int, int]] | np.ndarray,
    *,
    num_vertices: int | None = None,
    probability: float = 1.0,
    directed: bool = True,
    name: str = "graph",
) -> InfluenceGraph:
    """Build a graph directly from a sequence of ``(source, target)`` pairs.

    When ``directed`` is ``False``, each pair contributes both directions,
    matching how the paper turns undirected network data into influence
    graphs (e.g. Karate: 78 undirected edges become ``m = 156``).
    """
    builder = GraphBuilder(
        num_vertices, default_probability=probability, allow_duplicate_edges=True
    )
    for u, v in edges:
        if directed:
            builder.add_edge(int(u), int(v))
        else:
            builder.add_undirected_edge(int(u), int(v))
    return builder.build(name=name)
