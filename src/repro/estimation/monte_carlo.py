"""Forward Monte-Carlo spread estimation with convergence diagnostics.

A thin convenience layer over the forward-cascade primitive of any
:class:`~repro.diffusion.models.DiffusionModel` (IC by default) that also
reports a standard error, so examples and tests can decide whether a given
simulation budget suffices.  The RR-pool oracle
(:mod:`repro.estimation.oracle`) is preferred for scoring many seed sets on
the same graph; forward Monte-Carlo is preferred for scoring one seed set on
a graph where building a pool would be wasteful.

The cascades come from the model's own seeded dispatch — the one that also
serves :meth:`~repro.diffusion.models.DiffusionModel.simulate_spread`, whose
serial mean this estimate equals exactly.  ``jobs=`` opts into its
split-stream contract (each simulation, or each 64-lane bit-parallel
word, draws from its own child stream), and the per-simulation activation
counts are reduced as exact integers, so the estimate is bit-identical for
any worker count or chunk size (and differs from the default single-stream
sequential draw, which is preserved when ``jobs`` is not given).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .._validation import require_positive_int
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


def monte_carlo_spread(
    graph: InfluenceGraph,
    seed_set: tuple[int, ...] | list[int] | set[int],
    num_simulations: int,
    *,
    seed: int | RandomSource | None = None,
    model: "str | DiffusionModel | None" = None,
    jobs: int | None = None,
    context: RunContext | None = None,
    batch_mode: str | None = None,
) -> MonteCarloEstimate:
    """Estimate ``Inf(seed_set)`` from ``num_simulations`` forward cascades.

    ``model`` selects the diffusion model (name, instance, or ``None`` for the
    paper's independent cascade).  ``jobs`` opts into the parallel runtime's
    split-stream contract (simulation ``i`` uses a child stream of
    ``(seed, i)``); the default runs all cascades sequentially from one
    stream.  ``batch_mode="bitparallel"`` opts into the 64-worlds-per-word
    kernel (own draw-order contract; under ``jobs`` the split-stream task
    unit becomes the 64-world word, keeping any worker count bit-identical).
    ``context`` supplies any of the knobs left at ``None`` (explicit kwargs
    win; ``seed`` defaults to ``0`` without either).
    """
    require_positive_int(num_simulations, "num_simulations")
    seed, jobs, model, telemetry, batch_mode = resolve_context(
        context,
        seed=seed,
        jobs=jobs,
        model=model,
        batch_mode=batch_mode,
    )
    from ..obs import as_telemetry

    tel = as_telemetry(telemetry)
    diffusion = resolve_model(model)
    diffusion.validate(graph)
    source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
    tel.incr("mc.simulations", num_simulations)
    with tel.span("mc.spread"):
        counts = diffusion._activation_counts(
            graph,
            seed_set,
            num_simulations,
            source,
            batch_mode,
            jobs=jobs,
            telemetry=telemetry,
        )
    # Integer totals keep the reduction exact for any chunk layout.
    total = sum(counts)
    total_squared = sum(map(operator.mul, counts, counts))
    mean = total / num_simulations
    variance = max(0.0, total_squared / num_simulations - mean * mean)
    if num_simulations > 1:
        variance *= num_simulations / (num_simulations - 1)
    return MonteCarloEstimate(mean=mean, std=math.sqrt(variance), num_simulations=num_simulations)
