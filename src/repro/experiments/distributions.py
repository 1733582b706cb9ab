"""Influence-distribution summaries (Section 5.2, Figures 4-6).

The paper visualises influence distributions as notched box plots annotated
with the mean, the 1st/25th/75th/99th percentiles, and the notch (a 95%
confidence interval for the median).  :class:`InfluenceDistribution` computes
all of those numbers from the raw per-trial influence values, and
:func:`mean_versus_statistics` produces the (mean, SD) and
(mean, 1st percentile) series of Figure 6, which underpin the paper's claim
that the mean alone is a sufficient quality statistic for comparing the three
approaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ExperimentConfigurationError


@dataclass(frozen=True)
class InfluenceDistribution:
    """Summary statistics of one empirical influence distribution."""

    num_trials: int
    mean: float
    std: float
    minimum: float
    percentile_1: float
    percentile_25: float
    median: float
    percentile_75: float
    percentile_99: float
    maximum: float
    notch_low: float
    notch_high: float

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_values(values: Sequence[float] | np.ndarray) -> "InfluenceDistribution":
        """Compute the box-plot statistics from raw influence values."""
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            raise ExperimentConfigurationError(
                "cannot summarise an empty influence distribution"
            )
        q1, q25, q50, q75, q99 = np.percentile(array, [1, 25, 50, 75, 99])
        iqr = q75 - q25
        # Standard notch formula: median +- 1.57 * IQR / sqrt(n).
        notch_radius = 1.57 * iqr / math.sqrt(array.size)
        # np.mean's pairwise summation can drift one ULP outside [min, max]
        # for near-constant samples; clamp so min <= mean <= max always holds.
        mean = float(min(max(array.mean(), array.min()), array.max()))
        return InfluenceDistribution(
            num_trials=int(array.size),
            mean=mean,
            std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
            minimum=float(array.min()),
            percentile_1=float(q1),
            percentile_25=float(q25),
            median=float(q50),
            percentile_75=float(q75),
            percentile_99=float(q99),
            maximum=float(array.max()),
            notch_low=float(q50 - notch_radius),
            notch_high=float(q50 + notch_radius),
        )

    # ------------------------------------------------------------------ #
    @property
    def interquartile_range(self) -> float:
        """75th minus 25th percentile."""
        return self.percentile_75 - self.percentile_25

    def as_row(self) -> dict[str, float]:
        """Flatten to a dictionary for table rendering."""
        return {
            "num_trials": self.num_trials,
            "mean": round(self.mean, 4),
            "std": round(self.std, 4),
            "min": round(self.minimum, 4),
            "p1": round(self.percentile_1, 4),
            "p25": round(self.percentile_25, 4),
            "median": round(self.median, 4),
            "p75": round(self.percentile_75, 4),
            "p99": round(self.percentile_99, 4),
            "max": round(self.maximum, 4),
        }


def near_optimal_probability(
    values: Sequence[float] | np.ndarray,
    reference: float,
    *,
    quality: float = 0.95,
) -> float:
    """Fraction of trials reaching at least ``quality`` times the reference spread.

    This is the success criterion behind Table 5: an instance/sample-number
    pair is deemed sufficient once this probability reaches 99%.
    """
    if reference <= 0:
        raise ExperimentConfigurationError(
            f"reference spread must be positive, got {reference}"
        )
    if not 0.0 < quality <= 1.0:
        raise ExperimentConfigurationError(
            f"quality must lie in (0, 1], got {quality}"
        )
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(np.mean(array >= quality * reference))


def mean_versus_statistics(
    distributions: Sequence[InfluenceDistribution],
) -> dict[str, list[float]]:
    """Figure 6 series: mean value vs. standard deviation and 1st percentile.

    Returns three aligned lists keyed ``"mean"``, ``"std"``, ``"p1"``, ordered
    by increasing mean, one point per input distribution (one per sample
    number in the paper's usage).
    """
    ordered = sorted(distributions, key=lambda dist: dist.mean)
    return {
        "mean": [dist.mean for dist in ordered],
        "std": [dist.std for dist in ordered],
        "p1": [dist.percentile_1 for dist in ordered],
    }
