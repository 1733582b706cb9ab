"""Adaptive sample-number determination (Sections 3.5.3 and 7).

RIS research concentrates on choosing the sample number ``theta`` to meet a
``(1 - 1/e - eps)``-approximation guarantee with as few RR sets as possible;
Oneshot- and Snapshot-type algorithms have no such mechanism, which the
paper's concluding remarks call out as an open direction.  This module
implements both sides:

* :func:`estimate_opt_lower_bound` — the TIM+-style KPT estimation: probe RR
  sets of geometrically growing batches to lower-bound ``OPT_k`` without
  solving the problem first.
* :func:`determine_theta` — plug the lower bound into the RIS sample-number
  formula to obtain a concrete ``theta`` for a requested ``(eps, delta)``.
* :func:`adaptive_sample_number` — the paper's "future work" applied to
  Oneshot and Snapshot: double the sample number until the greedy solution's
  mean influence estimate stabilises within a relative tolerance across two
  consecutive rounds, returning the chosen sample number and the trace.

These utilities are exercised by the ablation bench
``benchmarks/bench_ablation_stopping.py`` and unit-tested in
``tests/algorithms/test_stopping.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .._validation import require_fraction, require_positive_int
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..estimation.oracle import RRPoolOracle
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from .framework import GreedyResult, InfluenceEstimator, greedy_maximize


# --------------------------------------------------------------------------- #
# TIM+-style OPT lower bound and theta determination
# --------------------------------------------------------------------------- #
def estimate_opt_lower_bound(
    graph: InfluenceGraph,
    k: int,
    *,
    seed: int = 0,
    max_rounds: int | None = None,
    model: "str | DiffusionModel | None" = None,
) -> float:
    """Lower-bound ``OPT_k`` with the TIM+ KPT estimation procedure.

    Round ``i`` draws ``c_i = ceil(n / 2^i * log n)``-ish batches (bounded for
    pure Python) of RR sets and checks whether the average "width fraction"
    ``kappa`` of a batch exceeds ``1 / 2^i``; the first crossing yields the
    estimate ``KPT = n * kappa / (1 + eps')``, which lower-bounds ``OPT_k``
    with high probability.  The procedure never returns less than ``k`` (any
    k-seed set reaches at least its own k vertices).
    """
    require_positive_int(k, "k")
    diffusion = resolve_model(model)
    diffusion.validate(graph)
    n = graph.num_vertices
    if n == 0:
        raise InvalidParameterError("cannot estimate OPT on an empty graph")
    m = max(graph.num_edges, 1)
    rng = RandomSource(seed)
    rounds = max_rounds if max_rounds is not None else max(1, int(math.log2(n)))
    log_n = max(math.log(n), 1.0)
    for i in range(1, rounds + 1):
        batch = min(int((6 * log_n + 6) * (2 ** i)), 10_000)
        weights = diffusion.sample_rr_store(graph, batch, rng).weights.tolist()
        # kappa(R) = 1 - (1 - w(R)/m)^k measures how likely a random k-set is
        # to intersect R through its edges (Tang et al. 2014, Algorithm 2).
        total_kappa = 0.0
        for weight in weights:
            width_fraction = min(1.0, weight / m)
            total_kappa += 1.0 - (1.0 - width_fraction) ** k
        mean_kappa = total_kappa / batch
        if mean_kappa > 1.0 / (2 ** i):
            return max(float(k), n * mean_kappa / 2.0)
    return float(k)


def determine_theta(
    graph: InfluenceGraph,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    opt_lower_bound: float | None = None,
    seed: int = 0,
    model: "str | DiffusionModel | None" = None,
) -> int:
    """Concrete RR-set count for a ``(1 - 1/e - eps)`` guarantee.

    ``theta = eps^-2 * n * (k ln n + ln(1/delta)) / OPT_lb`` — the standard
    RIS bound with the hidden constant taken as 1 (consistent with
    :func:`repro.algorithms.bounds.ris_sample_bound`).  ``delta`` defaults to
    ``1/n``.
    """
    require_positive_int(k, "k")
    require_fraction(epsilon, "epsilon")
    n = graph.num_vertices
    if delta is None:
        delta = 1.0 / max(n, 2)
    require_fraction(delta, "delta")
    if opt_lower_bound is None:
        opt_lower_bound = estimate_opt_lower_bound(graph, k, seed=seed, model=model)
    if opt_lower_bound <= 0:
        raise InvalidParameterError("opt_lower_bound must be positive")
    theta = epsilon ** -2 * n * (k * math.log(n) + math.log(1.0 / delta)) / opt_lower_bound
    return max(1, int(math.ceil(theta)))


# --------------------------------------------------------------------------- #
# Doubling scheme for Oneshot and Snapshot (the paper's open direction)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdaptiveSampleNumber:
    """Outcome of the doubling scheme for an arbitrary estimator family."""

    sample_number: int
    result: GreedyResult
    trace: tuple[tuple[int, float], ...]
    converged: bool


def adaptive_sample_number(
    graph: InfluenceGraph,
    k: int,
    estimator_factory: Callable[[int], InfluenceEstimator],
    oracle: RRPoolOracle,
    *,
    relative_tolerance: float = 0.02,
    initial_samples: int = 1,
    max_samples: int = 1 << 14,
    trials_per_round: int = 3,
    stable_rounds: int = 2,
    seed: int = 0,
    model: "str | DiffusionModel | None" = None,
) -> AdaptiveSampleNumber:
    """Double the sample number until the solution quality stabilises.

    Each candidate sample number is evaluated by ``trials_per_round``
    independent greedy runs whose seed sets are scored with the shared oracle;
    the round score is their mean.  The search stops once the best score seen
    so far has failed to improve by more than ``relative_tolerance`` for
    ``stable_rounds`` consecutive doublings (or the budget is reached).  It
    gives Oneshot and Snapshot the "sample number selection" facility the
    paper notes they lack; for RIS it reproduces the usual doubling behaviour.

    ``model`` only validates feasibility up front; the estimators produced by
    ``estimator_factory`` and the scoring ``oracle`` carry their own model
    bindings (see :func:`repro.experiments.factories.estimator_factory`).
    """
    require_positive_int(k, "k")
    resolve_model(model).validate(graph)
    require_positive_int(initial_samples, "initial_samples")
    require_positive_int(max_samples, "max_samples")
    require_positive_int(trials_per_round, "trials_per_round")
    require_positive_int(stable_rounds, "stable_rounds")
    if max_samples < initial_samples:
        raise InvalidParameterError("max_samples must be >= initial_samples")
    if relative_tolerance <= 0:
        raise InvalidParameterError("relative_tolerance must be positive")

    source = RandomSource(seed)
    samples = initial_samples
    best_score = 0.0
    stable = 0
    trace: list[tuple[int, float]] = []
    best_result: GreedyResult | None = None
    converged = False
    while True:
        round_results: list[tuple[float, GreedyResult]] = []
        for run_rng in source.spawn(trials_per_round):
            estimator = estimator_factory(samples)
            result = greedy_maximize(graph, k, estimator, seed=run_rng)
            round_results.append((oracle.spread(result.seed_set), result))
        round_score = sum(score for score, _ in round_results) / trials_per_round
        trace.append((samples, round_score))
        best_result = max(round_results, key=lambda item: item[0])[1]
        if best_score > 0 and round_score <= best_score * (1.0 + relative_tolerance):
            stable += 1
            if stable >= stable_rounds:
                converged = True
                break
        else:
            stable = 0
        best_score = max(best_score, round_score)
        if samples >= max_samples:
            break
        samples = min(samples * 2, max_samples)
    assert best_result is not None
    return AdaptiveSampleNumber(
        sample_number=samples,
        result=best_result,
        trace=tuple(trace),
        converged=converged,
    )
