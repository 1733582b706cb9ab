"""Per-sample traversal cost and equal-accuracy cost (Tables 8 and 9).

Table 8 measures the traversal cost of each approach at seed size ``k = 1``
and sample number 1: the greedy framework's first iteration evaluates every
vertex, so

* Oneshot with ``beta = 1`` simulates one cascade from every vertex and costs
  ``sum_v Inf(v)`` vertex examinations in expectation,
* Snapshot with ``tau = 1`` runs one live-edge BFS from every vertex (same
  vertex cost, but only live edges are scanned), and
* RIS with ``theta = 1`` generates a single RR set and costs about ``EPT``
  vertex examinations.

Table 9 then conditions the three approaches to identical accuracy: with
comparable number ratios ``cr1`` (Oneshot vs Snapshot) and ``cr2`` (RIS vs
Snapshot), setting ``beta = cr1 * gamma``, ``tau = gamma``, ``theta = cr2 *
gamma`` equalises the mean influence, and the equal-accuracy cost per unit
``gamma`` is the per-sample cost multiplied by the respective ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .._validation import require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.models import DiffusionModel, resolve_model
from ..exceptions import ExperimentConfigurationError
from ..graphs.influence_graph import InfluenceGraph
from .trials import EstimatorFactory, _greedy_runs


@dataclass(frozen=True)
class TraversalCostRow:
    """Average per-run traversal cost of one approach on one instance (Table 8)."""

    graph_name: str
    approach: str
    vertex_cost: float
    edge_cost: float
    sample_vertices: float
    sample_edges: float
    num_repetitions: int

    @property
    def total_cost(self) -> float:
        """Vertices plus edges examined."""
        return self.vertex_cost + self.edge_cost

    def as_row(self) -> dict[str, object]:
        """Flatten for table rendering."""
        return {
            "network": self.graph_name,
            "algorithm": self.approach,
            "vertex": round(self.vertex_cost, 1),
            "edge": round(self.edge_cost, 1),
            "sample_vertices": round(self.sample_vertices, 1),
            "sample_edges": round(self.sample_edges, 1),
        }


def traversal_cost_table(
    graph: InfluenceGraph,
    factories: Mapping[str, EstimatorFactory],
    *,
    k: int = 1,
    num_samples: int = 1,
    num_repetitions: int = 3,
    experiment_seed: int | None = None,
    model: "str | DiffusionModel | None" = None,
    jobs: int | None = None,
    context: RunContext | None = None,
    telemetry=None,
) -> list[TraversalCostRow]:
    """Table 8 rows for one instance across one or more approaches.

    Each approach's cost is averaged over ``num_repetitions`` independent
    greedy runs to smooth the randomness of cascades / snapshots / RR
    targets.  ``context`` supplies any of ``experiment_seed``/``jobs``/
    ``model``/``telemetry`` left at ``None`` (explicit kwargs win).
    ``model`` validates instance feasibility once, up front (sampling
    follows the model bound into each factory).  Every repetition is fixed
    by its own derived seed, so ``jobs`` parallelism (see
    :mod:`repro.runtime`) returns bit-identical rows; the repetitions run
    through the greedy-run dispatcher shared with
    :func:`repro.experiments.trials.run_trials` (in-process at
    ``jobs=None``), and under ``jobs`` each approach's worker pool lives
    for that approach only.  ``telemetry`` records the summed raw
    per-repetition costs as ``traversal.*``/``sample.*`` counters.
    """
    from ..obs import as_telemetry

    require_positive_int(num_repetitions, "num_repetitions")
    experiment_seed, jobs, model, telemetry, _ = resolve_context(
        context,
        seed=experiment_seed,
        jobs=jobs,
        model=model,
        telemetry=telemetry,
    )
    if model is not None:
        resolve_model(model).validate(graph)
    tel = as_telemetry(telemetry)
    rep_seeds = [
        experiment_seed * 1_000 + repetition for repetition in range(num_repetitions)
    ]
    rows = []
    for label, factory in factories.items():
        with tel.span("traversal.approach"):
            results = _greedy_runs(
                graph, k, factory, num_samples, rep_seeds, jobs=jobs, telemetry=telemetry
            )
        tel.incr("traversal.repetitions", len(results))
        for result in results:
            tel.record_cost(result.cost)
        costs = [result.cost for result in results]
        # Trust the estimator's own approach label but fall back to the key.
        approach = results[-1].approach
        rows.append(
            TraversalCostRow(
                graph_name=graph.name,
                approach=label if approach == "unknown" else approach,
                vertex_cost=float(np.mean([cost.traversal.vertices for cost in costs])),
                edge_cost=float(np.mean([cost.traversal.edges for cost in costs])),
                sample_vertices=float(np.mean([cost.sample_size.vertices for cost in costs])),
                sample_edges=float(np.mean([cost.sample_size.edges for cost in costs])),
                num_repetitions=num_repetitions,
            )
        )
    return rows


def empirical_cost_ratios(rows: list[TraversalCostRow]) -> dict[str, float]:
    """Normalise Table 8 rows to Oneshot = 1 (Section 5.3's 1 : m~/m : 1/n check).

    Returns per-approach vertex and edge ratios keyed
    ``"<approach>_vertex"`` / ``"<approach>_edge"``.  Raises if no Oneshot row
    is present (the two largest paper networks omit Oneshot; use Snapshot as
    the base there by normalising manually).
    """
    base = next((row for row in rows if row.approach == "oneshot"), None)
    if base is None:
        raise ExperimentConfigurationError("empirical_cost_ratios requires a oneshot row")
    ratios: dict[str, float] = {}
    for row in rows:
        ratios[f"{row.approach}_vertex"] = (
            row.vertex_cost / base.vertex_cost if base.vertex_cost else float("nan")
        )
        ratios[f"{row.approach}_edge"] = (
            row.edge_cost / base.edge_cost if base.edge_cost else float("nan")
        )
    return ratios


@dataclass(frozen=True)
class EqualAccuracyCostRow:
    """Table 9 row: cost per unit gamma when conditioned to identical accuracy."""

    graph_name: str
    approach: str
    comparable_ratio: float
    cost_per_gamma: float

    def as_row(self) -> dict[str, object]:
        """Flatten for table rendering."""
        return {
            "network": self.graph_name,
            "algorithm": self.approach,
            "comparable_ratio": round(self.comparable_ratio, 4),
            "cost_per_gamma": round(self.cost_per_gamma, 1),
        }


def equal_accuracy_costs(
    per_sample_rows: list[TraversalCostRow],
    comparable_ratios: Mapping[str, float],
) -> list[EqualAccuracyCostRow]:
    """Combine Table 8 per-sample costs with comparable ratios into Table 9.

    ``comparable_ratios`` maps approach name to its comparable number ratio
    relative to Snapshot (so ``{"snapshot": 1.0}`` implicitly, ``"oneshot"``
    maps to ``cr1`` and ``"ris"`` to ``cr2``).  The equal-accuracy cost per
    unit gamma is ``ratio * (vertex_cost + edge_cost)``.
    """
    rows: list[EqualAccuracyCostRow] = []
    for row in per_sample_rows:
        ratio = comparable_ratios.get(row.approach, 1.0)
        if ratio <= 0:
            raise ExperimentConfigurationError(
                f"comparable ratio for {row.approach} must be positive, got {ratio}"
            )
        rows.append(
            EqualAccuracyCostRow(
                graph_name=row.graph_name,
                approach=row.approach,
                comparable_ratio=float(ratio),
                cost_per_gamma=float(ratio) * row.total_cost,
            )
        )
    return rows
