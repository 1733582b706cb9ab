"""The one entry point: ``repro.run(spec)`` dispatches any experiment spec.

Each ``_run_<kind>`` function reproduces, step for step, what the
corresponding CLI subcommand (and therefore the historical imperative
recipe) does — same construction order, same derived seeds (oracle seed is
``context.seed + 1``, matching ``--run-seed``), same estimator-factory
bindings — so running a spec and running the legacy code path yield
identical numbers.  That equivalence is pinned by the golden CLI tests in
``tests/api/``.
"""

from __future__ import annotations

from typing import Any

from ..diffusion.models import DiffusionModel, resolve_model
from ..estimation.oracle import RRPoolOracle
from ..exceptions import SpecValidationError
from ..experiments.factories import estimator_factory
from ..experiments.sweeps import sweep_sample_numbers
from ..experiments.traversal import traversal_cost_table
from ..experiments.trials import run_trials
from ..algorithms.framework import greedy_maximize
from ..graphs.datasets import PAPER_DATASETS, load_dataset
from ..graphs.influence_graph import InfluenceGraph
from ..graphs.statistics import network_statistics
from ..obs import as_telemetry
from ..runtime.engine import run_tasks
from .results import (
    ExperimentResult,
    MaximizeResult,
    StatsResult,
    SweepResult,
    TraversalResult,
    TrialsResult,
)
from .specs import (
    ExperimentSpec,
    MaximizeSpec,
    StatsSpec,
    SweepSpec,
    TraversalSpec,
    TrialsSpec,
)


def _resolve_instance(spec: Any) -> tuple[InfluenceGraph, DiffusionModel]:
    """Build the (graph, diffusion model) instance and validate feasibility."""
    tel = as_telemetry(spec.context.telemetry)
    with tel.span("graph.build"):
        graph = spec.graph.resolve()
    diffusion = resolve_model(spec.context.model)
    # Fail fast with a clear error (e.g. LT incoming weights exceeding one)
    # before spending time on pools, snapshots, or trials.
    diffusion.validate(graph)
    if tel.enabled:
        tel.gauge("graph.vertices", graph.num_vertices)
        tel.gauge("graph.edges", graph.num_edges)
    return graph, diffusion


def _stats_row_worker(task: tuple[str, float]) -> dict[str, object]:
    """Compute one dataset's statistics row (picklable worker)."""
    name, scale = task
    graph = load_dataset(name, scale=scale)
    return network_statistics(graph, max_distance_sources=100).as_row()


def _run_stats(spec: StatsSpec) -> StatsResult:
    names = PAPER_DATASETS if spec.dataset == "all" else (spec.dataset,)
    rows = run_tasks(
        _stats_row_worker,
        [(name, float(spec.scale)) for name in names],
        jobs=spec.context.jobs,
        telemetry=spec.context.telemetry,
    )
    return StatsResult(spec=spec, rows=tuple(rows))


def _run_maximize(spec: MaximizeSpec) -> MaximizeResult:
    graph, diffusion = _resolve_instance(spec)
    context = spec.context
    tel = as_telemetry(context.telemetry)
    estimator = estimator_factory(
        spec.estimator.approach,
        jobs=context.jobs,
        model=diffusion,
        # The estimator spec's own batch_mode wins over the context's.
        batch_mode=spec.estimator.batch_mode or context.batch_mode,
    )(spec.estimator.num_samples)
    greedy = greedy_maximize(
        graph, spec.k, estimator, seed=context.seed, context=context
    )
    tel.record_cost(greedy.cost)
    # Free the estimator's samples (e.g. RIS's RR sets) before the pool is built.
    del estimator
    oracle = RRPoolOracle(
        graph,
        pool_size=spec.pool_size,
        seed=context.seed + 1,
        model=diffusion,
        jobs=context.jobs,
        context=context,
    )
    with tel.span("oracle.score"):
        estimate = oracle.spread_with_confidence(greedy.seed_set)
    return MaximizeResult(
        spec=spec, graph_name=graph.name, greedy=greedy, influence=estimate
    )


def _run_trials(spec: TrialsSpec) -> TrialsResult:
    graph, diffusion = _resolve_instance(spec)
    context = spec.context
    oracle = RRPoolOracle(
        graph,
        pool_size=spec.pool_size,
        seed=context.seed + 1,
        model=diffusion,
        jobs=context.jobs,
        context=context,
    )
    trial_set = run_trials(
        graph,
        spec.k,
        estimator_factory(
            spec.estimator.approach,
            model=diffusion,
            batch_mode=spec.estimator.batch_mode or context.batch_mode,
        ),
        spec.estimator.num_samples,
        spec.num_trials,
        oracle=oracle,
        experiment_seed=context.seed,
        model=diffusion,
        jobs=context.jobs,
        telemetry=context.telemetry,
    )
    return TrialsResult(spec=spec, graph_name=graph.name, trial_set=trial_set)


def _run_sweep(spec: SweepSpec) -> SweepResult:
    graph, diffusion = _resolve_instance(spec)
    context = spec.context
    oracle = RRPoolOracle(
        graph,
        pool_size=spec.pool_size,
        seed=context.seed + 1,
        model=diffusion,
        jobs=context.jobs,
        context=context,
    )
    # Parallelism is applied at the trial level (the coarsest grain); the
    # estimator factory stays serial so worker processes do not nest pools.
    sweep = sweep_sample_numbers(
        graph,
        spec.k,
        estimator_factory(spec.approach, model=diffusion, batch_mode=context.batch_mode),
        spec.grid(),
        num_trials=spec.num_trials,
        oracle=oracle,
        experiment_seed=context.seed,
        model=diffusion,
        jobs=context.jobs,
        telemetry=context.telemetry,
    )
    return SweepResult(spec=spec, graph_name=graph.name, sweep=sweep)


def _run_traversal(spec: TraversalSpec) -> TraversalResult:
    graph, diffusion = _resolve_instance(spec)
    context = spec.context
    rows = traversal_cost_table(
        graph,
        {
            name: estimator_factory(
                name, model=diffusion, batch_mode=context.batch_mode
            )
            for name in spec.approaches
        },
        k=spec.k,
        num_samples=spec.num_samples,
        num_repetitions=spec.repetitions,
        experiment_seed=context.seed,
        model=diffusion,
        jobs=context.jobs,
        telemetry=context.telemetry,
    )
    return TraversalResult(spec=spec, graph_name=graph.name, rows=tuple(rows))


_RUNNERS = {
    StatsSpec: _run_stats,
    MaximizeSpec: _run_maximize,
    TrialsSpec: _run_trials,
    SweepSpec: _run_sweep,
    TraversalSpec: _run_traversal,
}


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute any experiment spec and return its structured result.

    The single public dispatcher of the declarative API: give it a
    :class:`StatsSpec`, :class:`MaximizeSpec`, :class:`TrialsSpec`,
    :class:`SweepSpec`, or :class:`TraversalSpec` (hand-built, or from
    :func:`repro.api.specs.spec_from_dict` /
    :func:`repro.api.specs.load_spec`) and it resolves the graph, validates
    the instance, runs the corresponding engine, and returns an
    :class:`~repro.api.results.ExperimentResult` with ``to_dict`` /
    ``to_json`` / ``to_text`` renderings.

    Determinism: equal specs produce identical results, equal to the legacy
    keyword-argument entry points with the same parameters.

    Observability: attach a :class:`~repro.obs.Telemetry` to the spec's
    context (``RunContext(telemetry=...)``) and the whole run is recorded —
    spans for every phase, counters reproducing the cost accounting — and
    the result's ``to_dict``/``to_json`` gain a ``"telemetry"`` block.  With
    no telemetry attached (the default) nothing is recorded and the result
    payload is byte-identical to earlier releases.
    """
    try:
        runner = _RUNNERS[type(spec)]
    except KeyError:
        raise SpecValidationError(
            f"run() expects an experiment spec, got {type(spec).__name__}; "
            f"supported: {', '.join(sorted(s.__name__ for s in _RUNNERS))}"
        ) from None
    tel = as_telemetry(spec.context.telemetry)
    if not tel.enabled:
        return runner(spec)
    tel.check_jobs(spec.context.jobs)
    with tel.span(f"run.{spec.kind}"):
        result = runner(spec)
    return result.with_telemetry(tel)
