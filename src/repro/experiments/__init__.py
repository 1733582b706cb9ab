"""Experiment harness: trials, distributions, convergence, comparisons, costs."""

from .comparison import (
    ComparablePoint,
    ComparableRatioCurve,
    comparable_ratio_curve,
)
from .convergence import (
    LeastSampleNumber,
    entropy_convergence_point,
    entropy_scaling_factor,
    least_sample_number,
    reference_spread_from_sweep,
)
from .distributions import (
    InfluenceDistribution,
    mean_versus_statistics,
    near_optimal_probability,
)
from .factories import (
    PAPER_APPROACHES,
    available_approaches,
    estimator_factory,
    make_estimator,
)
from .reporting import format_multi_series, format_table
from .seed_distribution import SeedSetDistribution, shannon_entropy
from .sweeps import SweepResult, powers_of_two, sweep_sample_numbers
from .traversal import (
    EqualAccuracyCostRow,
    TraversalCostRow,
    empirical_cost_ratios,
    equal_accuracy_costs,
    per_sample_traversal_cost,
    traversal_cost_table,
)
from .trials import (
    TrialOutcome,
    TrialSet,
    run_trials,
)

__all__ = [
    "TrialOutcome",
    "TrialSet",
    "run_trials",
    "SeedSetDistribution",
    "shannon_entropy",
    "InfluenceDistribution",
    "near_optimal_probability",
    "mean_versus_statistics",
    "SweepResult",
    "powers_of_two",
    "sweep_sample_numbers",
    "LeastSampleNumber",
    "least_sample_number",
    "reference_spread_from_sweep",
    "entropy_convergence_point",
    "entropy_scaling_factor",
    "ComparablePoint",
    "ComparableRatioCurve",
    "comparable_ratio_curve",
    "TraversalCostRow",
    "EqualAccuracyCostRow",
    "per_sample_traversal_cost",
    "traversal_cost_table",
    "empirical_cost_ratios",
    "equal_accuracy_costs",
    "PAPER_APPROACHES",
    "available_approaches",
    "estimator_factory",
    "make_estimator",
    "format_table",
    "format_multi_series",
]
