"""Plain-text edge-list input/output for influence graphs.

The format is the whitespace-separated edge list used by SNAP and KONECT
exports::

    # optional comment lines
    <source> <target> [probability]

Lines may optionally carry a third column with the influence probability;
when absent the probability defaults to 1.0 (assign a model afterwards with
:func:`repro.graphs.probability.assign_probabilities`).

Duplicate records — the same arc listed twice, or an undirected tie listed in
both orientations when reading with ``directed=False`` — are rejected by
default because each kept arc receives its own IC coin flip; see the
``on_duplicate`` parameter of :func:`read_edge_list` for the recovery
policies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO

from ..exceptions import GraphConstructionError
from .builder import GraphBuilder
from .influence_graph import InfluenceGraph


def _iter_records(lines: Iterable[str]) -> Iterable[tuple[int, int, int, float | None]]:
    """Yield ``(line_number, source, target, probability-or-None)`` from raw lines."""
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphConstructionError(
                f"line {line_number}: expected 2 or 3 columns, got {len(parts)}"
            )
        try:
            source = int(parts[0])
            target = int(parts[1])
        except ValueError as exc:
            raise GraphConstructionError(
                f"line {line_number}: endpoints must be integers: {line!r}"
            ) from exc
        probability: float | None = None
        if len(parts) == 3:
            try:
                probability = float(parts[2])
            except ValueError as exc:
                raise GraphConstructionError(
                    f"line {line_number}: probability must be a real number: {line!r}"
                ) from exc
        yield line_number, source, target, probability


def read_edge_list(
    path: str | Path,
    *,
    directed: bool = True,
    num_vertices: int | None = None,
    name: str | None = None,
    on_duplicate: str = "error",
) -> InfluenceGraph:
    """Read an influence graph from a text edge list at ``path``.

    Parameters
    ----------
    directed:
        When ``False``, every record also adds the reversed edge.
    num_vertices:
        Optional fixed vertex count (useful when isolated vertices exist
        beyond the largest endpoint id).
    name:
        Graph display name; defaults to the file stem.
    on_duplicate:
        Policy for repeated ``(source, target)`` pairs — real SNAP/KONECT
        exports do contain them (repeated interactions, or an undirected tie
        listed both as ``u v`` and ``v u``, which under ``directed=False``
        would produce each arc twice).  Silently keeping the duplicates gives
        one social tie two independent IC coin flips and inflates every
        influence estimate, so the default is ``"error"``: a
        :class:`GraphConstructionError` naming the offending line (and the
        line of the first occurrence).  ``"first"`` keeps the first
        occurrence, ``"last"`` keeps the last occurrence's probability, and
        ``"allow"`` restores the historical keep-everything behaviour for
        inputs that genuinely encode multi-edges.
    """
    file_path = Path(path)
    builder = GraphBuilder(num_vertices, on_duplicate=on_duplicate)
    try:
        with file_path.open("r", encoding="utf-8") as handle:
            for line_number, source, target, probability in _iter_records(handle):
                context = f"line {line_number}"
                builder.add_edge(source, target, probability, context=context)
                if not directed:
                    builder.add_edge(target, source, probability, context=context)
    except UnicodeDecodeError as error:
        raise GraphConstructionError(
            f"{file_path}: not a UTF-8 text edge list ({error.reason})"
        ) from None
    return builder.build(name=name if name is not None else file_path.stem)


def write_edge_list(
    graph: InfluenceGraph,
    path: str | Path,
    *,
    include_probabilities: bool = True,
    header: str | None = None,
) -> None:
    """Write ``graph`` to ``path`` in the plain-text edge-list format."""
    file_path = Path(path)
    with file_path.open("w", encoding="utf-8") as handle:
        _write(graph, handle, include_probabilities=include_probabilities, header=header)


def _write(
    graph: InfluenceGraph,
    handle: TextIO,
    *,
    include_probabilities: bool,
    header: str | None,
) -> None:
    if header:
        for line in header.splitlines():
            handle.write(f"# {line}\n")
    handle.write(f"# name={graph.name} n={graph.num_vertices} m={graph.num_edges}\n")
    for edge in graph.edges():
        if include_probabilities:
            handle.write(f"{edge.source} {edge.target} {edge.probability:.17g}\n")
        else:
            handle.write(f"{edge.source} {edge.target}\n")
