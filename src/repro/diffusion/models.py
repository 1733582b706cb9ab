"""Pluggable diffusion models: one protocol for IC, LT, and future models.

The paper studies Oneshot, Snapshot, and RIS under the independent cascade
(IC) model, but all three approaches rest only on the *live-edge*
interpretation of diffusion: a random subgraph is drawn by keeping edges
according to some per-model rule, and the spread of ``S`` is the expected
number of vertices reachable from ``S``.  The linear threshold (LT) model
shares that interpretation (each vertex keeps at most one in-edge), so every
estimator in :mod:`repro.algorithms` applies to it unchanged — provided the
model-specific sampling primitives are swappable.

:class:`DiffusionModel` bundles the four primitives a model must provide:

* **forward cascade** — one simulation of the diffusion process,
* **live-edge snapshot sampling** — one random subgraph ``G ~ G``,
* **RR-set sampling** — the vertices reaching a random target in ``G ~ G``,
* **exact spread** — ground-truth ``Inf(S)`` for tiny graphs.

All primitives return the *shared* result types (:class:`CascadeResult`,
:class:`Snapshot`, :class:`RRSet`), so downstream consumers — reachability,
``RRSetCollection``, the estimators, the oracle — are model-agnostic.  The
plural samplers (:meth:`DiffusionModel.simulate_cascades`,
:meth:`~DiffusionModel.simulate_spread`, :meth:`~DiffusionModel.sample_rr_sets`,
:meth:`~DiffusionModel.sample_snapshots`) are the only place that dispatches
on ``batch_mode`` and ``jobs``/``executor``; models override only the scalar
kernel hooks, and the module-level IC functions of the same names are
one-call shorthands for :data:`INDEPENDENT_CASCADE`.  Under ``jobs`` task
``i`` draws from a child stream of ``(rng, i)``, so any ``jobs`` value is
bit-identical.

Models are stateless singletons registered by name (``"ic"``, ``"lt"``);
:func:`register_model` admits third-party models, and :func:`resolve_model`
is the ``model=`` parameter normaliser used across the codebase (``None``
means IC, preserving historical behaviour exactly).  See ``docs/DESIGN.md``
for the architectural rationale.
"""

from __future__ import annotations

import abc
from functools import partial
from itertools import repeat

import numpy as np

from .._validation import require_positive_int, require_rng_or_streams
from ..exceptions import InvalidParameterError
from ..graphs.influence_graph import InfluenceGraph
from . import bitparallel as _bp
from . import cascade as _ic_cascade
from . import exact as _ic_exact
from . import linear_threshold as _lt
from . import reverse as _ic_reverse
from . import snapshots as _ic_snapshots
from .cascade import CascadeResult
from .costs import SampleSize, TraversalCost
from .random_source import RandomSource
from .reverse import RRSet
from .snapshots import Snapshot


def _as_generator(rng: RandomSource | np.random.Generator) -> np.random.Generator:
    """Normalise a random source to its underlying generator."""
    return rng.generator if isinstance(rng, RandomSource) else rng


def _generators(count: int, rng, streams):
    """One generator per task, in order: ``rng``'s repeated, or one per stream."""
    return repeat(_as_generator(rng), count) if streams is None else map(_as_generator, streams)


class DiffusionModel(abc.ABC):
    """Abstract diffusion model: the four live-edge primitives behind one name.

    Implementations must be stateless (all randomness comes from the ``rng``
    arguments) and picklable, because model instances are shipped to worker
    processes by the parallel runtime and bound into estimator factories.
    """

    #: Registry name ("ic", "lt", ...); also used in reports and CLI flags.
    name: str = "abstract"

    def validate(self, graph: InfluenceGraph) -> None:
        """Raise unless ``graph`` is a feasible instance for this model.

        The default accepts every influence graph; LT overrides this with the
        incoming-weight feasibility check.  Estimators and the oracle call it
        in Build so infeasible instances fail fast with a clear error.
        """

    # ------------------------------------------------------------------ #
    # the four primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def simulate_cascade(
        self,
        graph: InfluenceGraph,
        seeds,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
    ) -> CascadeResult:
        """Run one forward diffusion simulation from ``seeds``."""

    @abc.abstractmethod
    def sample_snapshot(
        self,
        graph: InfluenceGraph,
        rng: RandomSource | np.random.Generator,
        *,
        sample_size: SampleSize | None = None,
    ) -> Snapshot:
        """Draw one live-edge random graph in the shared CSR representation."""

    @abc.abstractmethod
    def sample_rr_set(
        self,
        graph: InfluenceGraph,
        rng: RandomSource | np.random.Generator,
        *,
        target: int | None = None,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
    ) -> RRSet:
        """Generate one reverse-reachable set under this model's live edges."""

    @abc.abstractmethod
    def exact_spread(self, graph: InfluenceGraph, seeds) -> float:
        """Exact ``Inf(seeds)`` by enumerating live-edge realizations (tiny graphs)."""

    # ------------------------------------------------------------------ #
    # bit-parallel live-word hooks (optional capability)
    # ------------------------------------------------------------------ #
    def forward_live_words(
        self, graph: InfluenceGraph, num_lanes: int, generator: np.random.Generator
    ) -> np.ndarray:
        """Sample ``num_lanes`` live-edge worlds in **forward-CSR** edge order.

        One ``uint64`` word per edge of ``graph.out_csr`` (bit ``w`` = live in
        world ``w``), consumed by the bit-parallel forward-cascade kernel.
        Models that cannot express their diffusion as per-world live edges
        keep the default, which rejects ``batch_mode="bitparallel"``.
        """
        raise InvalidParameterError(
            f"diffusion model {self.name!r} does not support batch_mode='bitparallel'"
        )

    def reverse_live_words(
        self, graph: InfluenceGraph, num_lanes: int, generator: np.random.Generator
    ) -> np.ndarray:
        """Sample ``num_lanes`` live-edge worlds in **reverse-CSR** edge order.

        One ``uint64`` word per edge of ``graph.in_csr``, consumed by the
        bit-parallel RR-set kernel.  Same capability contract as
        :meth:`forward_live_words`.
        """
        raise InvalidParameterError(
            f"diffusion model {self.name!r} does not support batch_mode='bitparallel'"
        )

    def _require_bitparallel_rng(self, count, rng, streams):
        """Shared guard for the bit-parallel plural paths.

        The bit-parallel unit of work is the 64-world word, so per-simulation
        ``streams`` cannot apply; a single ``rng`` is required.
        """
        if streams is not None:
            raise InvalidParameterError(
                "streams is incompatible with batch_mode='bitparallel': the "
                "bit-parallel unit is the 64-world word, not the single "
                "simulation (use jobs/executor for parallel word chunks)"
            )
        require_rng_or_streams(count, rng, None)

    # ------------------------------------------------------------------ #
    # scalar kernel hooks (models with a batched kernel override these)
    # ------------------------------------------------------------------ #
    def _scalar_cascades(
        self, graph: InfluenceGraph, seeds, generators, *, cost: TraversalCost | None = None
    ) -> list[CascadeResult]:
        """Scalar kernel hook: one forward cascade per entry of ``generators``.

        ``generators`` yields one numpy generator per cascade, in order (one
        object repeated for a single shared stream).  The default loops over
        :meth:`simulate_cascade`; IC overrides it with a batched kernel that
        amortizes per-call overhead without changing a single draw.
        """
        return [
            self.simulate_cascade(graph, seeds, generator, cost=cost)
            for generator in generators
        ]

    def _scalar_rr_sets(
        self,
        graph: InfluenceGraph,
        generators,
        *,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
    ) -> list[RRSet]:
        """Scalar kernel hook: one RR set per entry of ``generators``.

        Same contract as :meth:`_scalar_cascades`; IC overrides it with a
        batched kernel that reuses scratch buffers across the whole batch.
        """
        return [
            self.sample_rr_set(graph, generator, cost=cost, sample_size=sample_size)
            for generator in generators
        ]

    # ------------------------------------------------------------------ #
    # plural samplers: the one batch_mode and jobs/executor dispatch
    # ------------------------------------------------------------------ #
    def simulate_cascades(
        self,
        graph: InfluenceGraph,
        seeds,
        count: int,
        rng: RandomSource | np.random.Generator | None = None,
        *,
        cost: TraversalCost | None = None,
        streams=None,
        batch_mode: str | None = None,
    ) -> list[CascadeResult]:
        """Run ``count`` forward cascades in one batched call.

        Pass either ``rng`` (all cascades draw sequentially from one stream —
        byte-identical to ``count`` :meth:`simulate_cascade` calls) or
        ``streams`` (one independent source per cascade, the form the
        parallel runtime's chunk workers use).

        ``batch_mode="bitparallel"`` opts into the 64-worlds-per-word kernel:
        same cascade distribution and costs, different draw-order contract
        (see :mod:`repro.diffusion.bitparallel`), results listing activated
        vertices in ascending id rather than activation order.
        """
        if _bp.resolve_batch_mode(batch_mode) == _bp.BITPARALLEL:
            self._require_bitparallel_rng(count, rng, streams)
            return _bp.batched_cascade_results(
                graph,
                seeds,
                count,
                _as_generator(rng),
                partial(self.forward_live_words, graph),
                cost=cost,
            )
        require_rng_or_streams(count, rng, streams)
        return self._scalar_cascades(
            graph, seeds, _generators(count, rng, streams), cost=cost
        )

    def simulate_spread(
        self,
        graph: InfluenceGraph,
        seeds,
        num_simulations: int,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
        batch_mode: str | None = None,
    ) -> float:
        """Average activated count over ``num_simulations`` forward cascades.

        With ``batch_mode="bitparallel"`` the per-world activation counts
        come straight from the mask kernel's popcounts — no per-cascade
        result objects are materialised.
        """
        if _bp.resolve_batch_mode(batch_mode) == _bp.BITPARALLEL:
            self._require_bitparallel_rng(num_simulations, rng, None)
            counts = _bp.batched_cascade_counts(
                graph,
                seeds,
                num_simulations,
                _as_generator(rng),
                partial(self.forward_live_words, graph),
                cost=cost,
            )
            return float(counts.sum()) / num_simulations
        require_rng_or_streams(num_simulations, rng, None)
        results = self._scalar_cascades(
            graph, seeds, _generators(num_simulations, rng, None), cost=cost
        )
        return sum(result.num_activated for result in results) / num_simulations

    def sample_snapshots(
        self,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        executor: "Executor | None" = None,
        telemetry=None,
    ) -> list[Snapshot]:
        """Draw ``count`` independent snapshots.

        The default is the historical sequential single-stream draw, while
        ``jobs``/``executor`` opts into the runtime's split-stream seeding
        (snapshot ``i`` from a child stream of ``(rng, i)``; bit-identical
        for any worker count).  ``telemetry`` (optional) records a
        ``snapshot.samples`` counter and the runtime dispatch metrics.
        """
        require_positive_int(count, "count")
        if telemetry is not None and telemetry.enabled:
            telemetry.incr("snapshot.samples", count)
        if jobs is None and executor is None:
            return [
                self.sample_snapshot(graph, rng, sample_size=sample_size)
                for _ in range(count)
            ]

        from ..runtime.engine import run_seeded_tasks

        snapshots: list[Snapshot] = []
        for chunk_snapshots, chunk_size in run_seeded_tasks(
            _model_snapshot_chunk_worker,
            count,
            rng,
            jobs=jobs,
            executor=executor,
            payload=(self, graph),
            telemetry=telemetry,
        ):
            snapshots.extend(chunk_snapshots)
            if sample_size is not None:
                sample_size.merge(chunk_size)
        return snapshots

    def sample_rr_sets(
        self,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator | None = None,
        *,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        executor: "Executor | None" = None,
        streams=None,
        telemetry=None,
        batch_mode: str | None = None,
    ) -> list[RRSet]:
        """Generate ``count`` independent RR sets.

        With ``jobs=None`` and ``executor=None`` (the default), all sets are
        drawn sequentially from ``rng``'s single stream.  Passing ``jobs`` or
        an executor switches to the runtime's split-stream contract: set
        ``i`` is drawn from a child stream of ``(rng, i)``, so the collection
        is bit-identical for any worker count (``rng`` must then be an
        ``int``, ``SeedSequence``, or ``RandomSource``); cost accumulators
        are merged in chunk order, keeping totals exact.  ``streams`` (one
        source per set, mutually exclusive with ``jobs``/``executor``) draws
        set ``i`` only from ``streams[i]``.  ``telemetry`` (optional) records
        an ``rr.sets`` counter and the runtime dispatch metrics.

        ``batch_mode="bitparallel"`` generates the sets 64 worlds per word
        (own draw-order contract, see :mod:`repro.diffusion.bitparallel`);
        under ``jobs``/``executor`` the runtime's task unit becomes the
        **word** index — word ``i`` draws from the child stream of
        ``(rng, i)`` — so any worker count is bit-identical.
        """
        if streams is not None and (jobs is not None or executor is not None):
            raise InvalidParameterError(
                "streams is mutually exclusive with jobs/executor"
            )
        bitparallel = _bp.resolve_batch_mode(batch_mode) == _bp.BITPARALLEL
        if bitparallel:
            self._require_bitparallel_rng(count, rng, streams)
            _bp.record_counters(telemetry, count)
        else:
            require_rng_or_streams(count, rng, streams)
        if telemetry is not None and telemetry.enabled:
            telemetry.incr("rr.sets", count)
        if jobs is None and executor is None:
            if not bitparallel:
                return self._scalar_rr_sets(
                    graph, _generators(count, rng, streams), cost=cost, sample_size=sample_size
                )
            from ..obs import as_telemetry

            with as_telemetry(telemetry).span("bitparallel.kernel"):
                return _bp.batched_rr_sets(
                    graph,
                    count,
                    _as_generator(rng),
                    partial(self.reverse_live_words, graph),
                    cost=cost,
                    sample_size=sample_size,
                )

        from ..runtime.engine import run_seeded_tasks

        worker, task_count, payload = (
            (_model_rr_word_chunk_worker, len(_bp.word_spans(count)), (self, graph, count))
            if bitparallel
            else (_model_rr_chunk_worker, count, (self, graph))
        )
        rr_sets: list[RRSet] = []
        for chunk_sets, chunk_cost, chunk_size in run_seeded_tasks(
            worker,
            task_count,
            rng,
            jobs=jobs,
            executor=executor,
            payload=payload,
            telemetry=telemetry,
        ):
            rr_sets.extend(chunk_sets)
            if cost is not None:
                cost.merge(chunk_cost)
            if sample_size is not None:
                sample_size.merge(chunk_size)
        return rr_sets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def _model_snapshot_chunk_worker(
    payload: tuple[DiffusionModel, InfluenceGraph], root_key: tuple, start: int, stop: int
) -> tuple[list[Snapshot], SampleSize]:
    """Sample model snapshots for task indices ``start..stop-1`` (one per index).

    Module-level so it pickles into worker processes; each index derives its
    own child generator, making results independent of the chunk layout (and
    of which model the payload carries).
    """
    from ..runtime.seeding import child_generator

    model, graph = payload
    chunk_size = SampleSize()
    snapshots = [
        model.sample_snapshot(graph, child_generator(root_key, index), sample_size=chunk_size)
        for index in range(start, stop)
    ]
    return snapshots, chunk_size


def _model_rr_chunk_worker(
    payload: tuple[DiffusionModel, InfluenceGraph], root_key: tuple, start: int, stop: int
) -> tuple[list[RRSet], TraversalCost, SampleSize]:
    """Sample model RR sets for task indices ``start..stop-1`` (one per index).

    Each index derives its own child stream; the scalar hook
    :meth:`DiffusionModel._scalar_rr_sets` lets batched kernels (IC) reuse
    scratch buffers across the whole chunk instead of allocating two
    O(num_vertices) arrays per RR set.
    """
    from ..runtime.seeding import child_generator

    model, graph = payload
    chunk_cost = TraversalCost()
    chunk_size = SampleSize()
    rr_sets = model._scalar_rr_sets(
        graph,
        [child_generator(root_key, index) for index in range(start, stop)],
        cost=chunk_cost,
        sample_size=chunk_size,
    )
    return rr_sets, chunk_cost, chunk_size


def _model_rr_word_chunk_worker(
    payload: tuple[DiffusionModel, InfluenceGraph, int],
    root_key: tuple,
    start: int,
    stop: int,
) -> tuple[list[RRSet], TraversalCost, SampleSize]:
    """Bit-parallel RR generation for **word** indices ``start..stop-1``.

    The runtime task unit here is the 64-world word, not the single RR set:
    word ``i`` covers simulation indices ``64*i .. min(64*(i+1), count) - 1``
    and draws every one of its values (targets first, then live words) from
    the child stream of ``(root_key, i)``, so results are independent of the
    chunk layout and worker count.
    """
    from ..runtime.seeding import child_generator

    model, graph, count = payload
    chunk_cost = TraversalCost()
    chunk_size = SampleSize()
    rr_sets: list[RRSet] = []
    for word_index in range(start, stop):
        lanes = min(_bp.LANES_PER_WORD, count - word_index * _bp.LANES_PER_WORD)
        rr_sets.extend(
            _bp.batched_rr_sets(
                graph,
                lanes,
                child_generator(root_key, word_index),
                partial(model.reverse_live_words, graph),
                cost=chunk_cost,
                sample_size=chunk_size,
            )
        )
    return rr_sets, chunk_cost, chunk_size


class IndependentCascade(DiffusionModel):
    """The paper's independent cascade model (Section 2.2).

    A pure delegation wrapper over the historical IC primitives; every draw
    consumes the random stream exactly as the wrapped function does, so going
    through the model layer is byte-identical to calling the primitives
    directly.
    """

    name = "ic"

    def simulate_cascade(self, graph, seeds, rng, *, cost=None):
        return _ic_cascade.simulate_cascade(graph, seeds, rng, cost=cost)

    def _scalar_cascades(self, graph, seeds, generators, *, cost=None):
        # Batched kernel: identical draws, amortized per-call overhead
        # (one seed normalization, one CSR unpack, reused scratch buffers).
        return _ic_cascade._simulate_cascades_batch(graph, seeds, generators, cost=cost)

    def _scalar_rr_sets(self, graph, generators, *, cost=None, sample_size=None):
        return _ic_reverse._sample_rr_sets_batch(
            graph, generators, cost=cost, sample_size=sample_size
        )

    def forward_live_words(self, graph, num_lanes, generator):
        # IC live edges are independent Bernoulli flips, so one batched draw
        # over the forward-CSR probability array is the whole sampler.
        return _bp.ic_live_words(graph.out_csr[2], num_lanes, generator)

    def reverse_live_words(self, graph, num_lanes, generator):
        return _bp.ic_live_words(graph.in_csr[2], num_lanes, generator)

    def sample_snapshot(self, graph, rng, *, sample_size=None):
        return _ic_snapshots.sample_snapshot(graph, rng, sample_size=sample_size)

    def sample_rr_set(self, graph, rng, *, target=None, cost=None, sample_size=None):
        return _ic_reverse.sample_rr_set(
            graph, rng, target=target, cost=cost, sample_size=sample_size
        )

    def exact_spread(self, graph, seeds):
        return _ic_exact.exact_spread(graph, seeds)


class LinearThreshold(DiffusionModel):
    """The linear threshold model of Granovetter / Kempe et al. (2003).

    Snapshots are sampled with the LT live-edge rule (each vertex keeps at
    most one in-edge) and converted to the shared CSR :class:`Snapshot`
    representation, so snapshot reachability, blocked-vertex reduction, and
    the Snapshot estimator work unchanged.  RR sets are reverse random walks
    returning the shared :class:`RRSet` type.
    """

    name = "lt"

    def validate(self, graph):
        _lt.validate_lt_weights(graph)

    def simulate_cascade(self, graph, seeds, rng, *, cost=None):
        return _lt.simulate_lt_cascade(graph, seeds, rng, cost=cost)

    def forward_live_words(self, graph, num_lanes, generator):
        # LT live edges come from one threshold draw per (vertex, world):
        # each vertex keeps at most one in-edge, selected by where its draw
        # lands among the incoming-weight intervals.
        return _bp.lt_live_words(graph, num_lanes, generator)

    def reverse_live_words(self, graph, num_lanes, generator):
        return _bp.lt_live_words(graph, num_lanes, generator, reverse=True)

    def sample_snapshot(self, graph, rng, *, sample_size=None):
        return _lt.sample_lt_snapshot(graph, rng, sample_size=sample_size).to_snapshot()

    def sample_rr_set(self, graph, rng, *, target=None, cost=None, sample_size=None):
        return _lt.sample_lt_rr_set(
            graph, rng, target=target, cost=cost, sample_size=sample_size
        )

    def exact_spread(self, graph, seeds):
        return _lt.exact_lt_spread(graph, seeds)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, DiffusionModel] = {}

#: Names whose registrations may never be replaced: the module-level
#: singletons below are aliased throughout the codebase (``resolve_model``'s
#: default, the IC shorthands in ``reverse``/``snapshots``), so replacing the
#: registry entry would make ``model="ic"`` and ``model=None`` resolve to
#: different models.
_BUILTIN_NAMES: frozenset[str] = frozenset({"ic", "lt"})


def register_model(model: DiffusionModel, *, overwrite: bool = False) -> DiffusionModel:
    """Register ``model`` under its ``name`` and return it.

    Third-party models plug in here: subclass :class:`DiffusionModel`,
    implement the four primitives, and register an instance — every estimator,
    experiment, and CLI subcommand can then select it by name.  ``overwrite``
    permits re-registering a third-party name (e.g. during development); the
    built-in ``ic``/``lt`` entries can never be replaced.
    """
    if not isinstance(model, DiffusionModel):
        raise InvalidParameterError(
            f"register_model expects a DiffusionModel instance, got {type(model).__name__}"
        )
    if not model.name or model.name == DiffusionModel.name:
        raise InvalidParameterError("diffusion models must define a non-default name")
    if model.name in _REGISTRY:
        if model.name in _BUILTIN_NAMES:
            raise InvalidParameterError(
                f"the built-in diffusion model {model.name!r} cannot be replaced"
            )
        if not overwrite:
            raise InvalidParameterError(
                f"diffusion model {model.name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
    _REGISTRY[model.name] = model
    return model


def available_models() -> tuple[str, ...]:
    """Registered diffusion-model names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> DiffusionModel:
    """Look up a registered diffusion model by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown diffusion model {name!r}; available: {', '.join(available_models())}"
        ) from None


def resolve_model(model: "str | DiffusionModel | None") -> DiffusionModel:
    """Normalise a ``model=`` argument: name, instance, or ``None`` (= IC).

    ``None`` resolves to the independent cascade model, so every ``model=``
    parameter added across the codebase defaults to the paper's setting and
    preserves historical behaviour exactly.
    """
    if model is None:
        return INDEPENDENT_CASCADE
    if isinstance(model, DiffusionModel):
        return model
    if isinstance(model, str):
        return get_model(model)
    raise InvalidParameterError(
        f"model must be a name, a DiffusionModel, or None, got {type(model).__name__}"
    )


#: The registered singletons (also the ``resolve_model`` defaults).
INDEPENDENT_CASCADE = register_model(IndependentCascade())
LINEAR_THRESHOLD = register_model(LinearThreshold())
