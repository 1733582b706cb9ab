"""Repeated-trial execution: the core of the paper's methodology (Section 4).

For a fixed instance (graph + probability model), algorithm, sample number,
and seed size ``k``, the paper runs the algorithm ``T`` times with different
PRNG seeds, records every obtained seed set, and scores each with the shared
RR-pool oracle.  The resulting empirical *seed-set distribution* ``S(s)`` and
*influence distribution* ``I(s)`` are what Sections 5.1 and 5.2 analyse.

:func:`run_trials` performs exactly that for one configuration and returns a
:class:`TrialSet`; :mod:`repro.experiments.sweeps` stacks many of them across
sample numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .._validation import require_positive_int
from ..algorithms.framework import GreedyResult, InfluenceEstimator, greedy_maximize
from ..context import RunContext, resolve_context
from ..diffusion.costs import CostReport
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource, trial_seeds
from ..estimation.oracle import RRPoolOracle
from ..exceptions import ExperimentConfigurationError
from ..graphs.influence_graph import InfluenceGraph
from .seed_distribution import SeedSetDistribution

#: A factory mapping a sample number to a fresh estimator instance.
EstimatorFactory = Callable[[int], InfluenceEstimator]


def check_trial_setup(
    graph: InfluenceGraph,
    estimator_factory: EstimatorFactory,
    num_samples: int,
    oracle: RRPoolOracle,
    model: "str | DiffusionModel | None",
    context: str,
) -> None:
    """Validate feasibility and reject cross-model or cross-graph setups.

    Shared by :func:`run_trials` and
    :func:`repro.experiments.sweeps.sweep_sample_numbers`.  A declared
    ``model`` is validated against the graph; a probe estimator is built to
    discover the factory's model binding (structural heuristics have none and
    are exempt); and the oracle must score under the same model the
    estimators sample — otherwise every reported influence would silently
    use the wrong live-edge semantics — and for a graph with as many
    vertices.
    """
    declared = resolve_model(model) if model is not None else None
    if declared is not None:
        declared.validate(graph)
    # Constructing an estimator is sampling-free, so probing one instance to
    # read its model binding costs nothing.
    sampled = getattr(estimator_factory(num_samples), "model", None)
    names = {m.name for m in (declared, sampled) if m is not None}
    if len(names) > 1:
        raise ExperimentConfigurationError(
            f"{context} was given model={declared.name!r} but the estimator "
            f"factory builds {sampled.name!r} estimators"
        )
    if names and oracle.model.name not in names:
        expected = next(iter(names))
        raise ExperimentConfigurationError(
            f"{context} runs under the {expected!r} diffusion model but the "
            f"oracle scores under {oracle.model.name!r}; build the oracle "
            "with the same model"
        )
    if oracle.graph.num_vertices != graph.num_vertices:
        raise ExperimentConfigurationError(
            "oracle was built for a graph with a different number of vertices"
        )


@dataclass(frozen=True)
class TrialOutcome:
    """One algorithm run: the selected seed set and its oracle score."""

    seed_set: tuple[int, ...]
    influence: float
    trial_seed: int
    cost: CostReport

    @property
    def k(self) -> int:
        """Seed-set size."""
        return len(self.seed_set)


@dataclass(frozen=True)
class TrialSet:
    """All trials of one (graph, approach, sample number, k) configuration."""

    graph_name: str
    approach: str
    num_samples: int
    k: int
    outcomes: tuple[TrialOutcome, ...]

    # ------------------------------------------------------------------ #
    @property
    def num_trials(self) -> int:
        """Number of independent trials."""
        return len(self.outcomes)

    @property
    def influences(self) -> np.ndarray:
        """Oracle influence scores of all trials, in trial order."""
        return np.array([outcome.influence for outcome in self.outcomes], dtype=np.float64)

    @property
    def mean_influence(self) -> float:
        """Mean of the influence distribution."""
        return float(self.influences.mean()) if self.outcomes else 0.0

    def seed_set_distribution(self) -> SeedSetDistribution:
        """Empirical distribution over canonical (sorted) seed sets."""
        return SeedSetDistribution.from_seed_sets(
            [outcome.seed_set for outcome in self.outcomes]
        )

    def mean_cost(self) -> dict[str, float]:
        """Average traversal cost and sample size per trial."""
        if not self.outcomes:
            return {
                "traversal_vertices": 0.0,
                "traversal_edges": 0.0,
                "sample_vertices": 0.0,
                "sample_edges": 0.0,
            }
        keys = ("traversal_vertices", "traversal_edges", "sample_vertices", "sample_edges")
        totals = dict.fromkeys(keys, 0.0)
        for outcome in self.outcomes:
            for key, value in outcome.cost.as_dict().items():
                totals[key] += value
        return {key: totals[key] / len(self.outcomes) for key in keys}


def _greedy_chunk_worker(
    task: tuple[InfluenceGraph, int, EstimatorFactory, int, Sequence[int]],
) -> list[GreedyResult]:
    """Run one chunk of greedy runs; each run is fixed by its own seed.

    The one worker behind repeated trials and the Table 8 cost repetitions
    (:mod:`repro.experiments.traversal`).  Module-level so it pickles into
    worker processes.  Oracle scoring stays in the parent process: shipping
    the shared RR pool to every worker would dwarf the trial work, and
    parent-side scoring guarantees identical seed sets receive identical
    scores no matter where they were computed.
    """
    graph, k, estimator_factory, num_samples, run_seeds = task
    return [
        greedy_maximize(
            graph, k, estimator_factory(num_samples), seed=RandomSource(run_seed)
        )
        for run_seed in run_seeds
    ]


def _greedy_runs(
    graph: InfluenceGraph,
    k: int,
    estimator_factory: EstimatorFactory,
    num_samples: int,
    run_seeds: Sequence[int],
    *,
    jobs: int | None,
    telemetry,
) -> list[GreedyResult]:
    """One greedy run per seed, in seed order.

    ``jobs=None`` runs them in this process; otherwise they are chunked
    over an executor whose worker pool lives for this call only, and an
    enabled ``telemetry`` records the ``runtime.*`` dispatch metrics.
    """
    if jobs is None:
        return _greedy_chunk_worker((graph, k, estimator_factory, num_samples, run_seeds))
    from ..runtime.chunking import chunk_spans, default_num_chunks
    from ..runtime.engine import executor_scope, instrumented_map

    with executor_scope(jobs) as resolved:
        spans = chunk_spans(len(run_seeds), default_num_chunks(len(run_seeds), resolved.jobs))
        tasks = [
            (graph, k, estimator_factory, num_samples, run_seeds[start:stop])
            for start, stop in spans
        ]
        chunks = instrumented_map(resolved, _greedy_chunk_worker, tasks, telemetry=telemetry)
    return [result for chunk in chunks for result in chunk]


def run_trials(
    graph: InfluenceGraph,
    k: int,
    estimator_factory: EstimatorFactory,
    num_samples: int,
    num_trials: int,
    *,
    oracle: RRPoolOracle,
    experiment_seed: int | None = None,
    approach: str | None = None,
    model: "str | DiffusionModel | None" = None,
    jobs: int | None = None,
    context: RunContext | None = None,
    telemetry=None,
) -> TrialSet:
    """Run ``num_trials`` independent greedy trials and score them with ``oracle``.

    Parameters
    ----------
    estimator_factory:
        Called as ``estimator_factory(num_samples)`` once per trial so each
        trial starts from a fresh estimator (a single reusable instance would
        also work because ``build`` resets state, but a factory keeps the API
        honest about independence).  With ``jobs > 1`` the factory must be
        picklable (a module-level function or :func:`functools.partial` of
        one); the named factories from
        :mod:`repro.experiments.factories` qualify.
    oracle:
        The shared :class:`RRPoolOracle`; using the same oracle across
        configurations guarantees identical seed sets get identical scores.
    experiment_seed:
        Master seed; per-trial seeds are derived deterministically from it.
        ``None`` falls back to ``context.seed`` (historical default ``0``).
    approach:
        Override for the approach label (defaults to the estimator's).
    model:
        Diffusion model the experiment runs under; used to validate the
        instance's feasibility up front (e.g. LT incoming-weight sums) and
        cross-checked — together with the model bound into
        ``estimator_factory``, probed even when this parameter is omitted —
        against the ``oracle``'s model, rejecting setups that would silently
        score seed sets with the wrong live-edge semantics.  The sampling
        itself follows the bindings in ``estimator_factory`` and ``oracle``
        (see :func:`repro.experiments.factories.estimator_factory`).
    jobs:
        Optional parallelism (see :mod:`repro.runtime`).  Every trial is
        fully determined by its derived trial seed, so serial and parallel
        execution — and any worker count — produce bit-identical trial sets.
    context:
        Optional :class:`~repro.context.RunContext` supplying any of
        ``experiment_seed``/``jobs``/``model``/``telemetry`` left at their
        ``None`` defaults; explicit kwargs always win.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; records a
        ``trials.count`` counter, mirrors every trial's cost report into the
        ``traversal.*``/``sample.*`` counters (deterministic across ``jobs``
        because trial outcomes are bit-identical), and captures the runtime
        dispatch metrics on the parallel path.
    """
    require_positive_int(k, "k")
    require_positive_int(num_samples, "num_samples")
    require_positive_int(num_trials, "num_trials")
    experiment_seed, jobs, model, telemetry, _ = resolve_context(
        context,
        seed=experiment_seed,
        jobs=jobs,
        model=model,
        telemetry=telemetry,
    )
    check_trial_setup(graph, estimator_factory, num_samples, oracle, model, "trials")
    return _run_trial_set(
        graph,
        k,
        estimator_factory,
        num_samples,
        num_trials,
        oracle=oracle,
        experiment_seed=experiment_seed,
        approach=approach,
        jobs=jobs,
        telemetry=telemetry,
    )


def _run_trial_set(
    graph: InfluenceGraph,
    k: int,
    estimator_factory: EstimatorFactory,
    num_samples: int,
    num_trials: int,
    *,
    oracle: RRPoolOracle,
    experiment_seed: int,
    approach: str | None,
    jobs: int | None,
    telemetry,
) -> TrialSet:
    """The body of :func:`run_trials` for a resolved, validated configuration.

    Also the per-point body of
    :func:`repro.experiments.sweeps.sweep_sample_numbers`, which resolves
    the context and runs :func:`check_trial_setup` once for its whole grid.
    """
    from ..obs import as_telemetry

    tel = as_telemetry(telemetry)
    seeds = trial_seeds(experiment_seed, num_trials)
    with tel.span("trials.run"):
        results = _greedy_runs(
            graph, k, estimator_factory, num_samples, seeds, jobs=jobs, telemetry=telemetry
        )

    tel.incr("trials.count", num_trials)
    label = approach
    outcomes: list[TrialOutcome] = []
    for trial_seed, result in zip(seeds, results):
        if label is None:
            label = result.approach
        # Mirror each trial's cost accounting onto the telemetry layer: the
        # totals reproduce the legacy TraversalCost/SampleSize sums exactly,
        # and — because trial outcomes are bit-identical for every jobs
        # value — these counters are jobs-deterministic.
        tel.record_cost(result.cost)
        outcomes.append(
            TrialOutcome(
                seed_set=result.seed_set,
                influence=oracle.spread(result.seed_set),
                trial_seed=trial_seed,
                cost=result.cost,
            )
        )
    return TrialSet(
        graph_name=graph.name,
        approach=label or "unknown",
        num_samples=num_samples,
        k=k,
        outcomes=tuple(outcomes),
    )
