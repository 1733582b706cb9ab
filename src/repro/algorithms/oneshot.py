"""Oneshot (simulation-based) estimator — Algorithm 3.2.

Oneshot-type algorithms (CELF, CELF++, UBLF, SIEA, ...) run Monte-Carlo
simulations of the diffusion process *on the spot* whenever an estimate is
needed.  The sample number ``beta`` is the number of simulations per
Estimate call.

Properties relevant to the paper's findings:

* ``Build`` and ``Update`` do nothing; all cost is in ``Estimate``.
* The sample size is zero — nothing is stored between calls — which is why
  the paper concludes Oneshot is the right choice only when memory is the
  binding constraint.
* Because every Estimate call uses fresh, independent simulations, the value
  oracle is neither monotone nor submodular, so lazy evaluation (CELF) is a
  heuristic rather than an exact optimisation for this estimator.
"""

from __future__ import annotations

from .._validation import require_vertex
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..graphs.influence_graph import InfluenceGraph
from .framework import InfluenceEstimator


class OneshotEstimator(InfluenceEstimator):
    """Monte-Carlo on-demand influence estimator (sample number ``beta``).

    Parameters
    ----------
    num_samples:
        ``beta``: the number of cascade simulations per Estimate call.
    marginal:
        When ``True`` (default) Estimate returns the estimated influence of
        ``S + v``; the greedy argmax is identical to using the marginal gain,
        because the ``Inf(S)`` term is constant across candidates within one
        iteration (the paper notes "the results will be the same regardless").
    model:
        Diffusion model whose forward cascades are simulated (name, instance,
        or ``None`` for the paper's independent cascade).
    batch_mode:
        ``"bitparallel"`` runs each Estimate's simulations 64 worlds per
        machine word (opt-in fast path with its own draw-order contract —
        see :mod:`repro.diffusion.bitparallel`); the default ``None`` means
        ``"scalar"``.
    """

    approach = "oneshot"
    is_submodular = False

    def __init__(
        self,
        num_samples: int,
        *,
        marginal: bool = False,
        model: "str | DiffusionModel | None" = None,
        batch_mode: str | None = None,
    ) -> None:
        super().__init__(num_samples)
        self._marginal = bool(marginal)
        self._model = resolve_model(model)
        from ..diffusion.bitparallel import resolve_batch_mode

        self._batch_mode = resolve_batch_mode(batch_mode)
        self._rng: RandomSource | None = None
        self._current_seeds: tuple[int, ...] = ()
        self._baseline_estimate = 0.0

    @property
    def model(self) -> DiffusionModel:
        """The diffusion model this estimator simulates."""
        return self._model

    def build(self, graph: InfluenceGraph, rng: RandomSource) -> None:
        """Bind the graph and random source; Oneshot precomputes nothing."""
        self._model.validate(graph)
        self._reset_accounting(graph)
        self._rng = rng
        self._current_seeds = ()
        self._baseline_estimate = 0.0

    def _simulate_total(self, seeds: tuple[int, ...]) -> float:
        assert self._rng is not None
        return self._model.simulate_spread(
            self.graph,
            seeds,
            self.num_samples,
            self._rng,
            cost=self._estimate_cost,
            batch_mode=self._batch_mode,
        )

    def estimate(self, current_seeds: tuple[int, ...], vertex: int) -> float:
        """Simulate ``beta`` cascades from ``current_seeds + (vertex,)``."""
        if self._rng is None:
            raise_not_built()
        value = self._simulate_total(tuple(current_seeds) + (vertex,))
        if self._marginal:
            return value - self._baseline_estimate
        return value

    def update(self, chosen_vertex: int) -> None:
        """Record the chosen seed (only needed for marginal-mode baselines)."""
        chosen_vertex = require_vertex(chosen_vertex, self.graph.num_vertices)
        self._current_seeds = tuple(self._current_seeds) + (chosen_vertex,)
        if self._marginal:
            self._baseline_estimate = self._simulate_total(self._current_seeds)


def raise_not_built() -> None:
    """Raise the canonical estimator-not-built error."""
    from ..exceptions import EstimatorStateError

    raise EstimatorStateError("estimator.build(graph, rng) must be called before estimate()")
