"""Structured experiment results: one machine-readable object per spec kind.

Every :func:`repro.api.runner.run` call returns an :class:`ExperimentResult`
subclass that carries

* the originating spec (so a result file is self-describing and re-runnable),
* the underlying library dataclasses (``GreedyResult``, ``TrialSet``,
  ``SweepResult``, ``TraversalCostRow`` — nothing is lost over the imperative
  API), and
* three renderings: ``to_dict()`` (plain JSON-compatible data),
  ``to_json()``, and ``to_text()`` — the latter byte-identical to what the
  pre-spec CLI printed, which is how the CLI's default text mode stays
  pinned.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..estimation.oracle import SpreadEstimate
from ..algorithms.framework import GreedyResult
from ..experiments.reporting import format_multi_series, format_table
from ..experiments.sweeps import SweepResult as SweepData
from ..experiments.traversal import TraversalCostRow
from ..experiments.trials import TrialSet
from .specs import MaximizeSpec, StatsSpec, SweepSpec, TraversalSpec, TrialsSpec


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class ExperimentResult:
    """Base class of all structured experiment results.

    Results optionally carry the run's :class:`~repro.obs.Telemetry` (set by
    :func:`repro.api.runner.run` when one is attached to the spec's context);
    it appears as a ``"telemetry"`` block in :meth:`to_dict`.  Without one
    the dict is exactly the pre-telemetry payload, which is how the golden
    and jobs-bit-identity tests stay byte-identical.
    """

    kind: str = "abstract"

    #: Overridden by each frozen-dataclass subclass's ``telemetry`` field.
    telemetry: Any = None

    def payload(self) -> dict[str, Any]:
        """The kind-specific result data (without the spec envelope)."""
        raise NotImplementedError

    def to_text(self) -> str:
        """Legacy plain-text rendering (what the CLI prints in text mode)."""
        raise NotImplementedError

    def with_telemetry(self, telemetry: Any) -> "ExperimentResult":
        """A copy of this result carrying the run's telemetry."""
        return dataclasses.replace(self, telemetry=telemetry)

    def to_dict(self) -> dict[str, Any]:
        """Self-describing dict: kind, the originating spec, and the data."""
        out = _jsonable(
            {"kind": self.kind, "spec": self.spec.to_dict(), **self.payload()}
        )
        if self.telemetry is not None and getattr(self.telemetry, "enabled", False):
            out["telemetry"] = _jsonable(self.telemetry.to_dict())
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize :meth:`to_dict` as JSON."""
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class StatsResult(ExperimentResult):
    """Network-statistics rows (Table 3 methodology)."""

    spec: StatsSpec
    rows: tuple[dict[str, Any], ...]
    telemetry: Any = None

    kind = "stats"

    def payload(self) -> dict[str, Any]:
        return {"rows": [dict(row) for row in self.rows]}

    def to_text(self) -> str:
        return format_table(list(self.rows), title="Network statistics")


@dataclass(frozen=True)
class MaximizeResult(ExperimentResult):
    """One greedy run plus its oracle score."""

    spec: MaximizeSpec
    graph_name: str
    greedy: GreedyResult
    influence: SpreadEstimate
    telemetry: Any = None

    kind = "maximize"

    def payload(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "approach": self.greedy.approach,
            "num_samples": self.greedy.num_samples,
            "k": self.greedy.k,
            "seed_set": list(self.greedy.seed_set),
            "selection_order": list(self.greedy.seeds),
            "estimates": list(self.greedy.estimates),
            "influence": self.influence.value,
            "influence_confidence_radius": self.influence.confidence_radius,
            "cost": self.greedy.cost.as_dict(),
        }

    def to_text(self) -> str:
        cost = self.greedy.cost
        rows = [
            {
                "approach": self.greedy.approach,
                "samples": self.greedy.num_samples,
                "k": self.greedy.k,
                "seeds": self.greedy.seed_set,
                "influence": round(self.influence.value, 3),
                "influence_99ci": f"+-{self.influence.confidence_radius:.3f}",
                "traversal_vertices": cost.traversal.vertices,
                "traversal_edges": cost.traversal.edges,
                "stored_vertices": cost.sample_size.vertices,
                "stored_edges": cost.sample_size.edges,
            }
        ]
        return format_table(rows, title=f"Greedy result on {self.graph_name}")


def _trial_rows(trial_set: TrialSet) -> list[dict[str, Any]]:
    return [
        {
            "trial_seed": outcome.trial_seed,
            "seed_set": list(outcome.seed_set),
            "influence": outcome.influence,
            "cost": outcome.cost.as_dict(),
        }
        for outcome in trial_set.outcomes
    ]


@dataclass(frozen=True)
class TrialsResult(ExperimentResult):
    """Repeated-trial seed-set and influence distributions."""

    spec: TrialsSpec
    graph_name: str
    trial_set: TrialSet
    telemetry: Any = None

    kind = "trials"

    def payload(self) -> dict[str, Any]:
        distribution = self.trial_set.seed_set_distribution()
        return {
            "graph": self.graph_name,
            "approach": self.trial_set.approach,
            "num_samples": self.trial_set.num_samples,
            "k": self.trial_set.k,
            "num_trials": self.trial_set.num_trials,
            "entropy": distribution.entropy(),
            "num_distinct_seed_sets": distribution.support_size,
            "mean_influence": self.trial_set.mean_influence,
            "mean_cost": self.trial_set.mean_cost(),
            "trials": _trial_rows(self.trial_set),
        }

    def to_text(self) -> str:
        rows = [
            {
                "trial": index,
                "seed_set": outcome.seed_set,
                "influence": round(outcome.influence, 3),
            }
            for index, outcome in enumerate(self.trial_set.outcomes)
        ]
        title = (
            f"{self.trial_set.approach} trials on {self.graph_name} "
            f"(samples={self.trial_set.num_samples}, k={self.trial_set.k}, "
            f"T={self.trial_set.num_trials})"
        )
        return format_table(rows, title=title)


@dataclass(frozen=True)
class SweepResult(ExperimentResult):
    """Sample-number sweep: per-grid-point entropy and influence statistics.

    Named after the underlying :class:`repro.experiments.sweeps.SweepResult`
    it wraps (exposed here as :attr:`sweep`); import it as
    ``repro.api.SweepResult`` to disambiguate.
    """

    spec: SweepSpec
    graph_name: str
    sweep: SweepData
    telemetry: Any = None

    kind = "sweep"

    def payload(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "approach": self.spec.approach,
            "k": self.sweep.k,
            "num_trials": self.spec.num_trials,
            "sample_numbers": list(self.sweep.sample_numbers),
            "entropy": self.sweep.entropies(),
            "mean_influence": self.sweep.mean_influences(),
            "influence_distributions": {
                s: dist.as_row()
                for s, dist in self.sweep.influence_distributions().items()
            },
            "mean_sample_sizes": self.sweep.mean_sample_sizes(),
            "trials": {
                s: _trial_rows(trial_set)
                for s, trial_set in sorted(self.sweep.trial_sets.items())
            },
        }

    def to_text(self) -> str:
        return format_multi_series(
            {
                "entropy": self.sweep.entropies(),
                "mean_influence": self.sweep.mean_influences(),
            },
            title=(
                f"{self.spec.approach} sweep on {self.graph_name} "
                f"(k={self.sweep.k}, T={self.spec.num_trials})"
            ),
        )


@dataclass(frozen=True)
class TraversalResult(ExperimentResult):
    """Per-sample traversal-cost rows (Table 8 methodology)."""

    spec: TraversalSpec
    graph_name: str
    rows: tuple[TraversalCostRow, ...]
    telemetry: Any = None

    kind = "traversal"

    def payload(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "k": self.spec.k,
            "num_samples": self.spec.num_samples,
            "num_repetitions": self.spec.repetitions,
            "rows": [
                {
                    "approach": row.approach,
                    "vertex_cost": row.vertex_cost,
                    "edge_cost": row.edge_cost,
                    "sample_vertices": row.sample_vertices,
                    "sample_edges": row.sample_edges,
                }
                for row in self.rows
            ],
        }

    def to_text(self) -> str:
        return format_table(
            [row.as_row() for row in self.rows],
            title=(
                f"Per-sample traversal cost on {self.graph_name} "
                f"(k={self.spec.k}, sample number {self.spec.num_samples})"
            ),
        )
