"""Reverse Influence Sampling (RIS) estimator — Algorithm 3.4.

RIS (Borgs et al., TIM+, IMM, SSA, OPIM, ...) reduces influence maximization
to maximum coverage over a collection of reverse-reachable (RR) sets.  The
sample number ``theta`` is the number of RR sets generated in Build;
``n * F_R(S)`` — ``n`` times the fraction of RR sets intersecting ``S`` — is
an unbiased estimate of ``Inf(S)``.

Estimate returns the *marginal coverage* of a candidate vertex with respect
to the already chosen seeds; Update removes every RR set containing the new
seed so that subsequent coverage counts are automatically marginal
(Algorithm 3.4).  The estimator is monotone and submodular because coverage
functions are.

Cost accounting (Tables 1 and 8): RR-set generation is a reverse BFS, so all
traversal cost is in Build; Estimate and Update only touch the stored sets.
The sample size is the total number of vertices stored over all RR sets,
``theta * EPT`` in expectation.
"""

from __future__ import annotations

from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..diffusion.reverse import RRSetCollection
from ..exceptions import EstimatorStateError
from ..graphs.influence_graph import InfluenceGraph
from .framework import InfluenceEstimator


class RISEstimator(InfluenceEstimator):
    """RR-set coverage estimator (sample number ``theta``).

    ``model`` selects the diffusion model whose RR sets are generated (name,
    instance, or ``None`` for the paper's independent cascade); the coverage
    machinery is model-agnostic because every model returns the shared
    :class:`~repro.diffusion.reverse.RRSet` type.
    """

    approach = "ris"
    is_submodular = True

    def __init__(
        self,
        num_samples: int,
        *,
        model: "str | DiffusionModel | None" = None,
        jobs: int | None = None,
        batch_mode: str | None = None,
    ) -> None:
        super().__init__(num_samples)
        self._model = resolve_model(model)
        self._collection: RRSetCollection | None = None
        # Optional parallel Build (see repro.runtime): RR sets are generated
        # under the split-stream contract, bit-identical for any worker count.
        self._jobs = jobs
        from ..diffusion.bitparallel import resolve_batch_mode

        self._batch_mode = resolve_batch_mode(batch_mode)

    @property
    def model(self) -> DiffusionModel:
        """The diffusion model whose RR sets this estimator generates."""
        return self._model

    @property
    def collection(self) -> RRSetCollection:
        """The RR-set collection built by the last Build call."""
        if self._collection is None:
            raise EstimatorStateError(
                "estimator.build(graph, rng) must be called before accessing the collection"
            )
        return self._collection

    def build(self, graph: InfluenceGraph, rng: RandomSource) -> None:
        """Generate ``theta`` RR sets by reverse simulation.

        Sampling feeds the indexed collection directly through the batched
        entry point (:meth:`RRSetCollection.from_sampling`), amortizing
        per-set overhead while keeping the draws byte-identical to ``theta``
        single :meth:`DiffusionModel.sample_rr_set` calls.
        """
        self._model.validate(graph)
        self._reset_accounting(graph)
        self._collection = RRSetCollection.from_sampling(
            graph,
            self.num_samples,
            rng,
            model=self._model,
            cost=self._build_cost,
            sample_size=self._sample_size,
            jobs=self._jobs,
            batch_mode=self._batch_mode,
        )

    def estimate(self, current_seeds: tuple[int, ...], vertex: int) -> float:
        """Marginal influence estimate ``n * (marginal coverage of vertex) / theta``.

        ``current_seeds`` is accepted for protocol compatibility but is not
        needed: Update already removed every RR set covered by chosen seeds,
        so the alive-coverage count of ``vertex`` *is* its marginal coverage.
        """
        del current_seeds
        collection = self.collection
        return self.graph.num_vertices * collection.coverage(vertex) / self.num_samples

    def update(self, chosen_vertex: int) -> None:
        """Remove RR sets containing the chosen seed (Algorithm 3.4, Update)."""
        self.collection.remove_covered_by(chosen_vertex)

    # ------------------------------------------------------------------ #
    # direct spread queries (outside the greedy protocol)
    # ------------------------------------------------------------------ #
    def spread(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> float:
        """Estimate ``Inf(seed_set)`` as ``n * F_R(seed_set)`` over all RR sets."""
        collection = self.collection
        return self.graph.num_vertices * collection.fraction_covered(set(seed_set))

    @property
    def expected_rr_size(self) -> float:
        """Empirical mean RR-set size (an estimate of the paper's EPT)."""
        collection = self.collection
        if collection.num_total == 0:
            return 0.0
        return collection.total_size / collection.num_total
