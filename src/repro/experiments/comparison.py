"""Comparable number and size ratios between approaches (Section 5.2.3).

The paper compares two approaches by asking: *for each sample number of
approach 1, what is the least sample number of approach 2 whose influence
distribution is at least as good (has at least the same mean)?*  That least
value defines the *comparable number ratio* ``s2 / s1``; weighting by the
per-sample storage gives the *comparable size ratio*.  Figures 7-8 plot the
ratios against approach 1's sample number (or sample size) and Tables 6-7
report their medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Sequence

from ..exceptions import ExperimentConfigurationError
from .sweeps import SweepResult


@dataclass(frozen=True)
class ComparablePoint:
    """One point of a comparable-ratio curve."""

    reference_samples: int
    reference_mean: float
    comparable_samples: int | None
    number_ratio: float | None
    reference_size: float
    comparable_size: float | None
    size_ratio: float | None


@dataclass(frozen=True)
class ComparableRatioCurve:
    """Comparable number/size ratios of ``target`` relative to ``reference``."""

    reference_approach: str
    target_approach: str
    points: tuple[ComparablePoint, ...]

    def defined_points(self) -> tuple[ComparablePoint, ...]:
        """Points where a comparable sample number exists within the sweep."""
        return tuple(p for p in self.points if p.comparable_samples is not None)

    def median_number_ratio(self) -> float | None:
        """Median of the defined comparable number ratios (Tables 6-7)."""
        ratios = [p.number_ratio for p in self.defined_points() if p.number_ratio]
        if not ratios:
            return None
        return float(median(ratios))

    def median_size_ratio(self) -> float | None:
        """Median of the defined comparable size ratios (Table 7)."""
        ratios = [p.size_ratio for p in self.defined_points() if p.size_ratio is not None]
        if not ratios:
            return None
        return float(median(ratios))

    def as_rows(self) -> list[dict[str, object]]:
        """Per-point rows for reporting (Figure 7/8 series)."""
        rows = []
        for point in self.points:
            rows.append(
                {
                    "reference_samples": point.reference_samples,
                    "reference_mean": round(point.reference_mean, 4),
                    "comparable_samples": point.comparable_samples,
                    "number_ratio": point.number_ratio,
                    "size_ratio": point.size_ratio,
                }
            )
        return rows


def comparable_ratio_curve(
    reference: SweepResult,
    target: SweepResult,
    *,
    reference_sample_numbers: Sequence[int] | None = None,
) -> ComparableRatioCurve:
    """Compute comparable number/size ratios of ``target`` against ``reference``.

    For every reference sample number ``s1``, the comparable target sample
    number ``s2`` is the least swept value whose mean influence is at least
    the reference mean at ``s1``.  Points where no swept ``s2`` qualifies are
    kept with ``None`` entries so callers can see where the target sweep was
    too short.
    """
    if reference.graph_name != target.graph_name or reference.k != target.k:
        raise ExperimentConfigurationError(
            "comparable ratios require sweeps on the same graph and seed size"
        )
    target_means = target.mean_influences()
    target_sizes = target.mean_sample_sizes()
    reference_means = reference.mean_influences()
    reference_sizes = reference.mean_sample_sizes()

    selected = (
        tuple(sorted(reference_sample_numbers))
        if reference_sample_numbers is not None
        else reference.sample_numbers
    )
    points: list[ComparablePoint] = []
    for s1 in selected:
        if s1 not in reference_means:
            raise ExperimentConfigurationError(
                f"reference sweep does not contain sample number {s1}"
            )
        reference_mean = reference_means[s1]
        reference_size = reference_sizes[s1]
        comparable: int | None = None
        for s2 in sorted(target_means):
            if target_means[s2] >= reference_mean:
                comparable = s2
                break
        if comparable is None:
            points.append(
                ComparablePoint(
                    reference_samples=s1,
                    reference_mean=reference_mean,
                    comparable_samples=None,
                    number_ratio=None,
                    reference_size=reference_size,
                    comparable_size=None,
                    size_ratio=None,
                )
            )
            continue
        comparable_size = target_sizes[comparable]
        size_ratio = (
            comparable_size / reference_size if reference_size > 0 else None
        )
        points.append(
            ComparablePoint(
                reference_samples=s1,
                reference_mean=reference_mean,
                comparable_samples=comparable,
                number_ratio=comparable / s1,
                reference_size=reference_size,
                comparable_size=comparable_size,
                size_ratio=size_ratio,
            )
        )
    return ComparableRatioCurve(
        reference_approach=reference.approach,
        target_approach=target.approach,
        points=tuple(points),
    )
