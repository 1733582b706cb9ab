"""Ground-truth influence oracle used to score seed sets (Section 5.2).

The exact influence spread is #P-hard, so the paper scores every seed set
with a *shared* estimator: a pool of 10^7 RR sets per influence graph,
defining the unbiased estimate ``n * F_R(S)``.  Reusing the same pool across
all algorithms and trials guarantees that identical seed sets always receive
identical scores, so distributional comparisons are not blurred by scoring
noise.  The 99% confidence interval for the true spread around the estimate
is ``n * F_R(S) +- 1.29 * sqrt(n / pool_size) * ...`` — concretely the paper
states ``n * F_R(.) +- 1.29 * sqrt(1/10^7) * n`` for a Bernoulli fraction,
which we generalise to the configured pool size.

The default pool size here is much smaller than 10^7 (pure-Python RR-set
generation at that scale would dominate the session), but it is a constructor
argument, and :meth:`RRPoolOracle.confidence_radius` reports the loss of
precision explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._validation import normalize_seed_set, require_positive_int
from ..context import RunContext, resolve_context
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..graphs.influence_graph import InfluenceGraph


@dataclass(frozen=True)
class SpreadEstimate:
    """A spread estimate with its symmetric 99% confidence radius."""

    value: float
    confidence_radius: float

    @property
    def lower(self) -> float:
        """Lower end of the 99% confidence interval (never below 0)."""
        return max(0.0, self.value - self.confidence_radius)

    @property
    def upper(self) -> float:
        """Upper end of the 99% confidence interval."""
        return self.value + self.confidence_radius


class RRPoolOracle:
    """Shared RR-set pool scoring oracle.

    Parameters
    ----------
    graph:
        The influence graph whose spreads are to be scored.
    pool_size:
        Number of RR sets in the pool (the paper uses 10^7).
    seed:
        PRNG seed for pool generation; the pool is deterministic given
        ``(graph, pool_size, seed, model)``.  ``None`` falls back to
        ``context.seed`` (historical default ``0``).
    model:
        Diffusion model (name, instance, or ``None`` for the paper's
        independent cascade).  The pool scores spreads *under that model*,
        and the graph's feasibility is validated up front.
    context:
        Optional :class:`~repro.context.RunContext` supplying any of
        ``seed``/``jobs``/``model``/``batch_mode`` left at
        ``None``; explicit kwargs always win.
    batch_mode:
        ``"bitparallel"`` generates the pool 64 worlds per machine word (the
        opt-in fast path with its own draw-order contract — a *different*
        pool than the scalar stream, but the same RR-set distribution); the
        default ``None`` means ``"scalar"``.

    Notes
    -----
    Scoring a seed set costs ``O(sum of RR-set hits)`` thanks to an inverted
    vertex -> pool-index mapping; scoring many seed sets against the same pool
    is therefore cheap, which is exactly the paper's use case (10^3 trials
    times tens of sample numbers all scored against one pool).
    """

    #: z-value for a two-sided 99% confidence interval (as used in the paper).
    Z_99 = 2.58

    def __init__(
        self,
        graph: InfluenceGraph,
        pool_size: int = 100_000,
        *,
        seed: int | None = None,
        model: "str | DiffusionModel | None" = None,
        jobs: int | None = None,
        context: RunContext | None = None,
        batch_mode: str | None = None,
    ) -> None:
        seed, jobs, model, telemetry, batch_mode = resolve_context(
            context,
            seed=seed,
            jobs=jobs,
            model=model,
            batch_mode=batch_mode,
        )
        from ..diffusion.bitparallel import resolve_batch_mode
        from ..obs import as_telemetry

        batch_mode = resolve_batch_mode(batch_mode)
        tel = as_telemetry(telemetry)
        self._graph = graph
        self._model = resolve_model(model)
        self._model.validate(graph)
        self._pool_size = require_positive_int(pool_size, "pool_size")
        self._membership: list[list[int]] = [[] for _ in range(graph.num_vertices)]
        total_size = 0
        with tel.span("oracle.build"):
            if jobs is None:
                # Default sequential path: generate in bounded batches through
                # the model's batched kernel (byte-identical single-stream
                # draws; with batch_mode="bitparallel", whole 64-world words)
                # and discard each batch once indexed, so peak memory stays
                # the membership index plus one batch rather than the whole
                # pool.
                rng = RandomSource(seed)
                pool_index = 0
                while pool_index < self._pool_size:
                    batch = min(4096, self._pool_size - pool_index)
                    for rr_set in self._model.sample_rr_sets(
                        graph, batch, rng, telemetry=telemetry, batch_mode=batch_mode
                    ):
                        total_size += rr_set.size
                        for vertex in rr_set.vertices:
                            self._membership[vertex].append(pool_index)
                        pool_index += 1
            else:
                # Parallel pool generation under the runtime's split-stream
                # contract (bit-identical for any worker count, but a different
                # pool than the sequential single-stream draw above).
                rr_sets = self._model.sample_rr_sets(
                    graph,
                    self._pool_size,
                    RandomSource(seed),
                    jobs=jobs,
                    telemetry=telemetry,
                    batch_mode=batch_mode,
                )
                for pool_index, rr_set in enumerate(rr_sets):
                    total_size += rr_set.size
                    for vertex in rr_set.vertices:
                        self._membership[vertex].append(pool_index)
        if tel.enabled:
            tel.incr("oracle.rr_sets", self._pool_size)
            tel.incr("oracle.rr_vertices", total_size)
        self._total_size = total_size

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> InfluenceGraph:
        """The graph this oracle scores."""
        return self._graph

    @property
    def model(self) -> DiffusionModel:
        """The diffusion model the pool was generated under."""
        return self._model

    @property
    def pool_size(self) -> int:
        """Number of RR sets in the pool."""
        return self._pool_size

    @property
    def average_rr_size(self) -> float:
        """Empirical EPT of the pool (mean RR-set size)."""
        return self._total_size / self._pool_size

    def confidence_radius(self) -> float:
        """Half-width of the 99% CI for a spread estimate from this pool.

        The hit indicator of one RR set is Bernoulli with success probability
        ``Inf(S)/n <= 1``; a conservative (p = 1/2) normal approximation gives
        radius ``z * n / (2 * sqrt(pool_size))``.
        """
        return self.Z_99 * self._graph.num_vertices / (2.0 * math.sqrt(self._pool_size))

    def coverage_count(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> int:
        """Number of pool RR sets intersecting ``seed_set``."""
        seeds = normalize_seed_set(seed_set, self._graph.num_vertices)
        if len(seeds) == 1:
            return len(self._membership[seeds[0]])
        covered: set[int] = set()
        for vertex in seeds:
            covered.update(self._membership[vertex])
        return len(covered)

    def spread(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> float:
        """Unbiased spread estimate ``n * F_R(seed_set)``."""
        return (
            self._graph.num_vertices
            * self.coverage_count(seed_set)
            / self._pool_size
        )

    def spread_with_confidence(
        self, seed_set: tuple[int, ...] | list[int] | set[int]
    ) -> SpreadEstimate:
        """Spread estimate packaged with its 99% confidence radius."""
        return SpreadEstimate(self.spread(seed_set), self.confidence_radius())

    def single_vertex_spreads(self) -> np.ndarray:
        """Spread estimates ``Inf(v)`` for every vertex, as an array of length n."""
        counts = np.array(
            [len(members) for members in self._membership], dtype=np.float64
        )
        return self._graph.num_vertices * counts / self._pool_size

    def top_vertices(self, count: int = 3) -> list[tuple[int, float]]:
        """The ``count`` most influential single vertices (Table 4 rows)."""
        require_positive_int(count, "count")
        spreads = self.single_vertex_spreads()
        order = np.argsort(-spreads, kind="stable")[:count]
        return [(int(v), float(spreads[v])) for v in order]
