"""Forward Monte-Carlo spread estimation with convergence diagnostics.

A thin convenience layer over the forward-cascade primitive of any
:class:`~repro.diffusion.models.DiffusionModel` (IC by default) that also
reports a standard error, so examples and tests can decide whether a given
simulation budget suffices.  The RR-pool oracle
(:mod:`repro.estimation.oracle`) is preferred for scoring many seed sets on
the same graph; forward Monte-Carlo is preferred for scoring one seed set on
a graph where building a pool would be wasteful.

Batched parallelism: cascades are independent, so
:func:`monte_carlo_spread` accepts ``jobs=``/``executor=`` and dispatches
chunks of simulations through :mod:`repro.runtime`.  Each simulation index
draws from its own child stream and per-chunk activation totals are exact
integers, so the estimate is bit-identical for any worker count or chunk
size (and differs from the default single-stream sequential draw, which is
preserved when neither parameter is given).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import normalize_seed_set, require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..graphs.influence_graph import InfluenceGraph


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean spread, sample standard deviation, and standard error."""

    mean: float
    std: float
    num_simulations: int

    @property
    def standard_error(self) -> float:
        """Standard error of the mean.

        A single simulation carries no variance information, so the standard
        error is infinite (not zero) for ``num_simulations <= 1``.
        """
        if self.num_simulations <= 1:
            return float("inf")
        return self.std / math.sqrt(self.num_simulations)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval at the given z value.

        With ``num_simulations <= 1`` there is no variance estimate, and the
        infinite standard error would yield the uninformative
        ``(-inf, inf)``; instead the interval degenerates to the point
        estimate ``(mean, mean)``, making explicit that the estimate has a
        location but no measured spread.  Callers needing a genuine interval
        must run at least two simulations.
        """
        if self.num_simulations <= 1:
            return (self.mean, self.mean)
        radius = z * self.standard_error
        return (self.mean - radius, self.mean + radius)


def _cascade_chunk_worker(
    payload: tuple[DiffusionModel, InfluenceGraph, tuple[int, ...]],
    root_key: tuple,
    start: int,
    stop: int,
) -> tuple[int, int]:
    """Activation totals for simulation indices ``start..stop-1``.

    Returns integer ``(sum, sum of squares)`` so the parent-side reduction is
    exact regardless of chunk boundaries.
    """
    from ..runtime.seeding import child_generator

    model, graph, seed_set = payload
    results = model.simulate_cascades(
        graph,
        seed_set,
        stop - start,
        streams=[child_generator(root_key, index) for index in range(start, stop)],
    )
    total = 0
    total_squared = 0
    for result in results:
        total += result.num_activated
        total_squared += result.num_activated * result.num_activated
    return total, total_squared


def _cascade_word_chunk_worker(
    payload: tuple[DiffusionModel, InfluenceGraph, tuple[int, ...], int],
    root_key: tuple,
    start: int,
    stop: int,
) -> tuple[int, int]:
    """Bit-parallel activation totals for **word** indices ``start..stop-1``.

    The runtime task unit is the 64-world word: word ``i`` covers simulation
    indices ``64*i .. min(64*(i+1), count) - 1`` and draws all of its live
    words from the child stream of ``(root_key, i)``, so totals are
    bit-identical for any worker count or chunk layout.
    """
    from ..diffusion.bitparallel import LANES_PER_WORD, batched_cascade_counts
    from ..runtime.seeding import child_generator

    model, graph, seed_set, count = payload
    total = 0
    total_squared = 0
    for word_index in range(start, stop):
        lanes = min(LANES_PER_WORD, count - word_index * LANES_PER_WORD)
        counts = batched_cascade_counts(
            graph,
            seed_set,
            lanes,
            child_generator(root_key, word_index),
            lambda n, generator: model.forward_live_words(graph, n, generator),
        )
        total += int(counts.sum())
        total_squared += int((counts * counts).sum())
    return total, total_squared


def monte_carlo_spread(
    graph: InfluenceGraph,
    seed_set: tuple[int, ...] | list[int] | set[int],
    num_simulations: int,
    *,
    seed: int | RandomSource | None = None,
    model: "str | DiffusionModel | None" = None,
    jobs: int | None = None,
    executor: "Executor | None" = None,
    context: RunContext | None = None,
    batch_mode: str | None = None,
) -> MonteCarloEstimate:
    """Estimate ``Inf(seed_set)`` from ``num_simulations`` forward cascades.

    ``model`` selects the diffusion model (name, instance, or ``None`` for the
    paper's independent cascade).  ``jobs``/``executor`` opt into the parallel
    runtime's split-stream contract (simulation ``i`` uses a child stream of
    ``(seed, i)``); the default runs all cascades sequentially from one
    stream.  ``batch_mode="bitparallel"`` opts into the 64-worlds-per-word
    kernel (own draw-order contract; under ``jobs`` the split-stream task
    unit becomes the 64-world word, keeping any worker count bit-identical).
    ``context`` supplies any of the knobs left at ``None`` (explicit kwargs
    win; ``seed`` defaults to ``0`` without either).
    """
    require_positive_int(num_simulations, "num_simulations")
    seed, jobs, executor, model, telemetry, batch_mode = resolve_context(
        context,
        seed=seed,
        jobs=jobs,
        executor=executor,
        model=model,
        batch_mode=batch_mode,
    )
    from ..diffusion.bitparallel import (
        BITPARALLEL,
        batched_cascade_counts,
        record_counters,
        resolve_batch_mode,
        word_spans,
    )
    from ..obs import as_telemetry

    tel = as_telemetry(telemetry)
    diffusion = resolve_model(model)
    diffusion.validate(graph)
    bitparallel = resolve_batch_mode(batch_mode) == BITPARALLEL
    tel.incr("mc.simulations", num_simulations)
    if bitparallel:
        record_counters(tel, num_simulations)
    with tel.span("mc.spread"):
        if jobs is None and executor is None:
            source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
            total = 0
            total_squared = 0
            if bitparallel:
                seeds = normalize_seed_set(seed_set, graph.num_vertices)
                with tel.span("bitparallel.kernel"):
                    counts = batched_cascade_counts(
                        graph,
                        seeds,
                        num_simulations,
                        source.generator,
                        lambda lanes, generator: diffusion.forward_live_words(
                            graph, lanes, generator
                        ),
                    )
                total = int(counts.sum())
                total_squared = int((counts * counts).sum())
            else:
                # One batched call (identical stream consumption to the
                # historical per-simulation loop; the batch only amortizes
                # per-call overhead).
                for result in diffusion.simulate_cascades(
                    graph, seed_set, num_simulations, source.generator
                ):
                    total += result.num_activated
                    total_squared += result.num_activated * result.num_activated
        else:
            from ..runtime.engine import run_seeded_tasks

            seeds = normalize_seed_set(seed_set, graph.num_vertices)
            if bitparallel:
                worker = _cascade_word_chunk_worker
                task_count = len(word_spans(num_simulations))
                payload = (diffusion, graph, seeds, num_simulations)
            else:
                worker = _cascade_chunk_worker
                task_count = num_simulations
                payload = (diffusion, graph, seeds)
            total = 0
            total_squared = 0
            for chunk_total, chunk_squared in run_seeded_tasks(
                worker,
                task_count,
                seed,
                jobs=jobs,
                executor=executor,
                payload=payload,
                telemetry=telemetry,
            ):
                total += chunk_total
                total_squared += chunk_squared
    mean = total / num_simulations
    variance = max(0.0, total_squared / num_simulations - mean * mean)
    if num_simulations > 1:
        variance *= num_simulations / (num_simulations - 1)
    return MonteCarloEstimate(mean=mean, std=math.sqrt(variance), num_simulations=num_simulations)
