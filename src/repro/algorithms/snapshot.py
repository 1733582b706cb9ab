"""Snapshot estimator — Algorithm 3.3, with the graph-reduction Update.

Snapshot-type algorithms (NewGreedy, MixedGreedy, StaticGreedy, PMC, SKIM)
draw ``tau`` live-edge random graphs up front and share them across all
greedy iterations.  The estimate of ``Inf(S)`` is the average over snapshots
of the number of vertices reachable from ``S``.  Because the snapshots are
fixed, the estimator is monotone and submodular, which the paper identifies
as one reason Snapshot needs far fewer samples than Oneshot in practice.

Two Update strategies are provided:

``"naive"``
    Algorithm 3.3 verbatim, as Table 8 charges it: every Update and every
    Estimate is charged the traversal of reachability from the whole seed
    set (``S`` resp. ``S + v``).
``"reduce"``
    The graph-reduction technique of Section 3.4.3: after choosing seed
    ``v_l``, vertices already reachable from the chosen seeds are marked as
    removed in each snapshot, so later Estimate calls traverse the smaller
    residual graph.  Estimates are unchanged; traversal cost drops.

Both strategies *walk* the same way: Update blocks what the chosen seed
reaches, and Estimate walks only the marginal reach of ``v`` past the
blocked lanes.  They differ only in what they charge.  Naive keeps the cost
of ``reach(S)`` (the sum of the marginal Update walks) as a base cost and
charges it again on every Update and Estimate.  Per snapshot ``reach(S + v)``
is ``reach(S)`` plus the part of ``reach(v)`` outside it, and a BFS examines
the same vertices and edges whatever the order it reaches them in, so the
charge equals that of re-running the whole BFS.

Sampling stays scalar: Build draws the ``tau`` snapshots one by one.  The
queries do not: Build packs the snapshots 64 per ``uint64`` word
(:class:`~repro.diffusion.snapshot_lanes.SnapshotLanes`), and every Estimate,
Update and spread runs one lane-mask BFS per 64 snapshots.  Counts and the
traversal cost are exact per-snapshot sums, so estimates, seeds and the
Table 8 counters equal those of one BFS per snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._validation import require_choice, require_vertex
from ..diffusion.costs import TraversalCost
from ..diffusion.models import DiffusionModel, resolve_model
from ..diffusion.random_source import RandomSource
from ..diffusion.snapshots import Snapshot
from ..exceptions import EstimatorStateError
from ..graphs.influence_graph import InfluenceGraph
from .framework import InfluenceEstimator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..diffusion.snapshot_lanes import SnapshotLanes

#: Valid Update strategies.
UPDATE_STRATEGIES: tuple[str, ...] = ("naive", "reduce")


class SnapshotEstimator(InfluenceEstimator):
    """Pre-sampled live-edge graph estimator (sample number ``tau``).

    Parameters
    ----------
    num_samples:
        ``tau``: the number of random graphs sampled in Build.
    update_strategy:
        ``"naive"`` (Algorithm 3.3) or ``"reduce"`` (Section 3.4.3).
    model:
        Diffusion model whose live-edge snapshots are sampled (name,
        instance, or ``None`` for the paper's independent cascade).  Every
        model yields snapshots in the shared CSR representation, so the
        reachability estimates and both Update strategies are model-agnostic.
    """

    approach = "snapshot"
    is_submodular = True

    def __init__(
        self,
        num_samples: int,
        *,
        update_strategy: str = "naive",
        model: "str | DiffusionModel | None" = None,
        jobs: int | None = None,
    ) -> None:
        super().__init__(num_samples)
        self._update_strategy = require_choice(
            update_strategy, UPDATE_STRATEGIES, "update_strategy"
        )
        self._model = resolve_model(model)
        # Optional parallel Build (see repro.runtime): snapshots are sampled
        # under the split-stream contract, bit-identical for any worker count.
        self._jobs = jobs
        self._snapshots: list[Snapshot] = []
        self._lanes: SnapshotLanes | None = None
        self._current_seeds: tuple[int, ...] = ()
        # Traversal cost of reach(current seeds) over the snapshots; its
        # vertex count is the reachable count.  Naive charges it again on
        # every Update and Estimate.
        self._base_cost = TraversalCost()

    @property
    def update_strategy(self) -> str:
        """The configured Update strategy ("naive" or "reduce")."""
        return self._update_strategy

    @property
    def model(self) -> DiffusionModel:
        """The diffusion model whose snapshots this estimator samples."""
        return self._model

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        """The sampled snapshots (read-only view)."""
        return tuple(self._snapshots)

    def build(self, graph: InfluenceGraph, rng: RandomSource) -> None:
        """Sample ``tau`` snapshots, pack them into lane words, reset caches.

        Sampling streams the edge list (one coin flip per edge per snapshot)
        without traversing the graph, so it adds to sample size but not to
        traversal cost, matching the paper's accounting.  Packing rearranges
        the stored edges without examining any.
        """
        self._model.validate(graph)
        self._reset_accounting(graph)
        self._snapshots = self._model.sample_snapshots(
            graph,
            self.num_samples,
            rng,
            sample_size=self._sample_size,
            jobs=self._jobs,
        )
        # Imported here, not at module level, so importing repro (and loading
        # a spec) does not load the lane kernels.
        from ..diffusion.snapshot_lanes import SnapshotLanes

        self._lanes = SnapshotLanes(self._snapshots)
        self._current_seeds = ()
        self._base_cost = TraversalCost()

    def _require_lanes(self, method: str) -> SnapshotLanes:
        if self._lanes is None:
            raise EstimatorStateError(
                f"estimator.build(graph, rng) must be called before {method}()"
            )
        return self._lanes

    def estimate(self, current_seeds: tuple[int, ...], vertex: int) -> float:
        """Average marginal reachability of ``vertex`` w.r.t. ``current_seeds``.

        Walks only what ``vertex`` reaches past the lanes blocked by
        :meth:`update`.  Naive also charges the base cost, so the charge is
        that of a BFS from ``current_seeds + (vertex,)``.  Naive seeds other
        than those given to :meth:`update` run that BFS in full.
        """
        lanes = self._require_lanes("estimate")
        tau = len(self._snapshots)
        if self._update_strategy == "naive":
            if tuple(current_seeds) != self._current_seeds:
                count = lanes.reachable_count(
                    tuple(current_seeds) + (vertex,), cost=self._estimate_cost
                )
                return (count - self._base_cost.vertices) / tau
            self._estimate_cost.merge(self._base_cost)
        return lanes.reachable_count((vertex,), cost=self._estimate_cost, blocked=True) / tau

    def update(self, chosen_vertex: int) -> None:
        """Block what the chosen seed reaches; naive also charges ``reach(S)``."""
        lanes = self._require_lanes("update")
        chosen_vertex = require_vertex(chosen_vertex, lanes.num_vertices)
        self._current_seeds = tuple(self._current_seeds) + (chosen_vertex,)
        if self._update_strategy == "reduce":
            lanes.block_reachable((chosen_vertex,), cost=self._estimate_cost)
        else:
            lanes.block_reachable((chosen_vertex,), cost=self._base_cost)
            self._estimate_cost.merge(self._base_cost)

    # ------------------------------------------------------------------ #
    # direct spread queries (outside the greedy protocol)
    # ------------------------------------------------------------------ #
    def spread(self, seed_set: tuple[int, ...] | list[int] | set[int]) -> float:
        """Estimate ``Inf(seed_set)`` directly from the stored snapshots."""
        lanes = self._require_lanes("spread")
        return lanes.reachable_count(seed_set, cost=self._estimate_cost) / len(
            self._snapshots
        )
