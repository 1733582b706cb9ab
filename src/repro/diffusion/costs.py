"""Machine-independent cost accounting (Section 1.3 and Table 1 of the paper).

The paper deliberately avoids wall-clock time and RAM, which depend on
implementation and machine, and instead reports

* **traversal cost** — the number of vertices and edges *examined* (possibly
  more than once) by an algorithm, proportional to running time, and
* **sample size** — the number of vertices and edges *stored in memory* as
  approach-specific samples, proportional to memory usage.

:class:`TraversalCost` and :class:`SampleSize` are small mutable accumulators
that the diffusion kernels and estimators update as they touch the graph;
they merge in place and add into fresh counters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TraversalCost:
    """Counter of vertices and edges examined during graph traversal."""

    vertices: int = 0
    edges: int = 0

    def add_vertices(self, count: int = 1) -> None:
        """Record that ``count`` vertices were examined."""
        self.vertices += int(count)

    def add_edges(self, count: int = 1) -> None:
        """Record that ``count`` edges were examined."""
        self.edges += int(count)

    def merge(self, other: "TraversalCost") -> None:
        """Accumulate another counter into this one in place."""
        self.vertices += other.vertices
        self.edges += other.edges

    def snapshot(self) -> "TraversalCost":
        """Return an independent copy of the current counts."""
        return TraversalCost(self.vertices, self.edges)

    @property
    def total(self) -> int:
        """Vertices plus edges: the paper's combined cost used in Table 9."""
        return self.vertices + self.edges

    def __add__(self, other: "TraversalCost") -> "TraversalCost":
        return TraversalCost(self.vertices + other.vertices, self.edges + other.edges)


@dataclass
class SampleSize:
    """Counter of vertices and edges stored in memory as samples.

    For Oneshot nothing is stored (sample size 0); for Snapshot the live edges
    of every sampled random graph are stored; for RIS the vertices of every RR
    set are stored (Table 1).
    """

    vertices: int = 0
    edges: int = 0

    def add_vertices(self, count: int = 1) -> None:
        """Record ``count`` vertices stored."""
        self.vertices += int(count)

    def add_edges(self, count: int = 1) -> None:
        """Record ``count`` edges stored."""
        self.edges += int(count)

    def merge(self, other: "SampleSize") -> None:
        """Accumulate another counter into this one in place."""
        self.vertices += other.vertices
        self.edges += other.edges

    @property
    def total(self) -> int:
        """Vertices plus edges, the paper's scalar "sample size"."""
        return self.vertices + self.edges

    def __add__(self, other: "SampleSize") -> "SampleSize":
        return SampleSize(self.vertices + other.vertices, self.edges + other.edges)


@dataclass(frozen=True)
class CostReport:
    """Immutable pairing of traversal cost and sample size for reporting."""

    traversal: TraversalCost
    sample_size: SampleSize

    def as_dict(self) -> dict[str, int]:
        """Flatten to a dictionary for table rendering."""
        return {
            "traversal_vertices": self.traversal.vertices,
            "traversal_edges": self.traversal.edges,
            "sample_vertices": self.sample_size.vertices,
            "sample_edges": self.sample_size.edges,
        }
