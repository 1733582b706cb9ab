"""Algorithms: the greedy framework and the three approaches plus baselines."""

from .bounds import (
    oneshot_sample_bound,
    ris_sample_bound,
    theoretical_cost_ratios,
)
from .celf import CELFStatistics, celf_maximize
from .exact import ExactEstimator, exhaustive_optimum
from .framework import GreedyResult, InfluenceEstimator, greedy_maximize
from .heuristics import (
    DegreeEstimator,
    RandomEstimator,
    SingleDiscountEstimator,
    WeightedDegreeEstimator,
)
from .oneshot import OneshotEstimator
from .ris import RISEstimator
from .snapshot import UPDATE_STRATEGIES, SnapshotEstimator
from .stopping import (
    AdaptiveSampleNumber,
    adaptive_sample_number,
    determine_theta,
    estimate_opt_lower_bound,
)

__all__ = [
    "InfluenceEstimator",
    "GreedyResult",
    "greedy_maximize",
    "OneshotEstimator",
    "SnapshotEstimator",
    "UPDATE_STRATEGIES",
    "RISEstimator",
    "celf_maximize",
    "CELFStatistics",
    "DegreeEstimator",
    "WeightedDegreeEstimator",
    "RandomEstimator",
    "SingleDiscountEstimator",
    "ExactEstimator",
    "exhaustive_optimum",
    "AdaptiveSampleNumber",
    "adaptive_sample_number",
    "determine_theta",
    "estimate_opt_lower_bound",
    "oneshot_sample_bound",
    "ris_sample_bound",
    "theoretical_cost_ratios",
]
