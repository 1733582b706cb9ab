"""Diffusion substrate: pluggable IC/LT models, snapshots, RR sets, exact spread, cost accounting."""

from .bitparallel import (
    BATCH_MODES,
    HAVE_BITWISE_COUNT,
    LANES_PER_WORD,
    popcount,
    require_batch_mode,
    resolve_batch_mode,
    unpack_lanes,
)
from .cascade import (
    CascadeResult,
    activation_probabilities,
    simulate_cascade,
    simulate_cascades,
    simulate_spread,
)
from .costs import CostReport, SampleSize, TraversalCost
from .frontier import first_hit, frontier_edges
from .exact import (
    MAX_EXACT_EDGES,
    exact_optimal_seed_set,
    exact_spread,
)
from .linear_threshold import (
    LTCascadeResult,
    LTRRSet,
    LTSnapshot,
    exact_lt_spread,
    sample_lt_rr_set,
    sample_lt_snapshot,
    simulate_lt_cascade,
    validate_lt_weights,
)
from .models import (
    INDEPENDENT_CASCADE,
    LINEAR_THRESHOLD,
    DiffusionModel,
    IndependentCascade,
    LinearThreshold,
    available_models,
    get_model,
    register_model,
    resolve_model,
)
from .random_source import RandomSource, trial_seeds
from .reverse import RRSet, RRSetCollection, sample_rr_set, sample_rr_sets
from .snapshots import (
    Snapshot,
    sample_snapshot,
    sample_snapshots,
    snapshot_from_live_edges,
)

__all__ = [
    "BATCH_MODES",
    "HAVE_BITWISE_COUNT",
    "LANES_PER_WORD",
    "popcount",
    "require_batch_mode",
    "resolve_batch_mode",
    "unpack_lanes",
    "DiffusionModel",
    "IndependentCascade",
    "LinearThreshold",
    "INDEPENDENT_CASCADE",
    "LINEAR_THRESHOLD",
    "available_models",
    "get_model",
    "register_model",
    "resolve_model",
    "LTCascadeResult",
    "LTSnapshot",
    "LTRRSet",
    "simulate_lt_cascade",
    "sample_lt_snapshot",
    "sample_lt_rr_set",
    "exact_lt_spread",
    "validate_lt_weights",
    "CascadeResult",
    "simulate_cascade",
    "simulate_cascades",
    "simulate_spread",
    "activation_probabilities",
    "frontier_edges",
    "first_hit",
    "TraversalCost",
    "SampleSize",
    "CostReport",
    "RandomSource",
    "trial_seeds",
    "Snapshot",
    "sample_snapshot",
    "sample_snapshots",
    "snapshot_from_live_edges",
    "RRSet",
    "RRSetCollection",
    "sample_rr_set",
    "sample_rr_sets",
    "exact_spread",
    "exact_optimal_seed_set",
    "MAX_EXACT_EDGES",
]
