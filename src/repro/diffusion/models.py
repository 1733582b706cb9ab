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
:meth:`~DiffusionModel.sample_snapshots`) and
:func:`~repro.estimation.monte_carlo.monte_carlo_spread` pick a batch kernel
by ``batch_mode`` and hand it to one seeded dispatch,
:meth:`DiffusionModel._run_seeded`: serially every task unit (one sample, or
one 64-lane bit-parallel word) draws from ``rng``'s one stream, and under
``jobs`` the one chunk worker, :func:`_seeded_chunk_worker`,
gives unit ``i`` the child stream of ``(rng, i)``, so any ``jobs`` value is
bit-identical.  Models override only the scalar kernel hooks, and the
module-level IC functions of the same names are one-call shorthands for
:data:`INDEPENDENT_CASCADE`.

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

from .._validation import require_positive_int
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
    # batch kernels: ``(bitparallel, count, generators, cost, sample_size)``,
    # one generator per task unit (a sample, or a 64-lane bit-parallel word)
    # ------------------------------------------------------------------ #
    def _cascade_kernel(self, graph, seeds, bitparallel, count, generators, cost, sample_size):
        if bitparallel:
            return _bp.batched_cascade_results(
                graph, seeds, count, generators, partial(self.forward_live_words, graph), cost=cost
            )
        return self._scalar_cascades(graph, seeds, generators, cost=cost)

    def _count_kernel(self, graph, seeds, bitparallel, count, generators, cost, sample_size):
        if bitparallel:
            return _bp.batched_cascade_counts(
                graph, seeds, count, generators, partial(self.forward_live_words, graph), cost=cost
            ).tolist()
        return [
            result.num_activated
            for result in self._scalar_cascades(graph, seeds, generators, cost=cost)
        ]

    def _rr_kernel(self, graph, bitparallel, count, generators, cost, sample_size):
        if bitparallel:
            return _bp.batched_rr_sets(
                graph,
                count,
                generators,
                partial(self.reverse_live_words, graph),
                cost=cost,
                sample_size=sample_size,
            )
        return self._scalar_rr_sets(graph, generators, cost=cost, sample_size=sample_size)

    def _snapshot_kernel(self, graph, bitparallel, count, generators, cost, sample_size):
        return [
            self.sample_snapshot(graph, generator, sample_size=sample_size)
            for generator in generators
        ]

    def _run_seeded(
        self,
        kernel,
        count: int,
        rng,
        batch_mode: str | None = None,
        *,
        counter: str | None = None,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        telemetry=None,
    ) -> list:
        """The one seeded dispatch behind every plural sampler and Monte-Carlo.

        Validates ``count`` and ``rng`` and records the deterministic
        counters (``counter`` and the bit-parallel ones) before any work.
        Serially the kernel's task units all draw from ``rng``'s one stream.
        Under ``jobs`` unit ``i`` draws from the child stream of
        ``(rng, i)`` in :func:`_seeded_chunk_worker`, and chunk results and
        accumulators merge in chunk order, so any worker count is
        bit-identical.
        """
        bitparallel = _bp.resolve_batch_mode(batch_mode) == _bp.BITPARALLEL
        require_positive_int(count, "count")
        if rng is None:
            raise InvalidParameterError(
                "rng must be a RandomSource or a numpy Generator (or, under "
                "jobs, an int or SeedSequence seed root), got None"
            )
        if bitparallel:
            _bp.record_counters(telemetry, count)
        if counter is not None and telemetry is not None and telemetry.enabled:
            telemetry.incr(counter, count)
        tasks = len(_bp.word_spans(count)) if bitparallel else count
        if jobs is None:
            generator = rng.generator if isinstance(rng, RandomSource) else rng
            generators = repeat(generator, tasks)
            if not bitparallel:
                return kernel(False, count, generators, cost, sample_size)
            from ..obs import as_telemetry

            with as_telemetry(telemetry).span("bitparallel.kernel"):
                return kernel(True, count, generators, cost, sample_size)

        from ..runtime.engine import run_seeded_tasks

        results: list = []
        for chunk, chunk_cost, chunk_size in run_seeded_tasks(
            _seeded_chunk_worker,
            tasks,
            rng,
            jobs=jobs,
            payload=(kernel, count, bitparallel),
            telemetry=telemetry,
        ):
            results.extend(chunk)
            if cost is not None:
                cost.merge(chunk_cost)
            if sample_size is not None:
                sample_size.merge(chunk_size)
        return results

    # ------------------------------------------------------------------ #
    # plural samplers
    # ------------------------------------------------------------------ #
    def simulate_cascades(
        self,
        graph: InfluenceGraph,
        seeds,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
        batch_mode: str | None = None,
    ) -> list[CascadeResult]:
        """Run ``count`` forward cascades in one batched call.

        All cascades draw sequentially from ``rng``'s one stream —
        byte-identical to ``count`` :meth:`simulate_cascade` calls.
        ``batch_mode="bitparallel"`` opts into the 64-worlds-per-word kernel:
        same cascade distribution and costs, different draw-order contract
        (see :mod:`repro.diffusion.bitparallel`), results listing activated
        vertices in ascending id rather than activation order.
        """
        return self._run_seeded(
            partial(self._cascade_kernel, graph, seeds), count, rng, batch_mode, cost=cost
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
        counts = self._activation_counts(
            graph, seeds, num_simulations, rng, batch_mode, cost=cost
        )
        return sum(counts) / num_simulations

    def _activation_counts(self, graph, seeds, count, rng, batch_mode, **dispatch) -> list[int]:
        """Activated-vertex counts of ``count`` forward cascades, in order.

        What :meth:`simulate_spread` averages and
        :func:`~repro.estimation.monte_carlo.monte_carlo_spread` reduces to a
        mean and standard deviation; ``dispatch`` goes to :meth:`_run_seeded`.
        """
        return self._run_seeded(
            partial(self._count_kernel, graph, seeds), count, rng, batch_mode, **dispatch
        )

    def sample_snapshots(
        self,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        telemetry=None,
    ) -> list[Snapshot]:
        """Draw ``count`` independent snapshots.

        The default is the historical sequential single-stream draw, while
        ``jobs`` opts into the runtime's split-stream seeding
        (snapshot ``i`` from a child stream of ``(rng, i)``; bit-identical
        for any worker count).  ``telemetry`` (optional) records a
        ``snapshot.samples`` counter and the runtime dispatch metrics.
        """
        return self._run_seeded(
            partial(self._snapshot_kernel, graph),
            count,
            rng,
            counter="snapshot.samples",
            sample_size=sample_size,
            jobs=jobs,
            telemetry=telemetry,
        )

    def sample_rr_sets(
        self,
        graph: InfluenceGraph,
        count: int,
        rng: RandomSource | np.random.Generator,
        *,
        cost: TraversalCost | None = None,
        sample_size: SampleSize | None = None,
        jobs: int | None = None,
        telemetry=None,
        batch_mode: str | None = None,
    ) -> list[RRSet]:
        """Generate ``count`` independent RR sets.

        With ``jobs=None`` (the default), all sets are drawn sequentially
        from ``rng``'s single stream.  Passing ``jobs`` switches to the
        runtime's split-stream contract: set ``i`` is drawn from a child
        stream of ``(rng, i)``, so the collection is bit-identical for any
        worker count (``rng`` must then be an ``int``, ``SeedSequence``, or
        ``RandomSource``); cost accumulators are merged in chunk order,
        keeping totals exact.  ``telemetry``
        (optional) records an ``rr.sets`` counter and the runtime dispatch
        metrics.

        ``batch_mode="bitparallel"`` generates the sets 64 worlds per word
        (own draw-order contract, see :mod:`repro.diffusion.bitparallel`);
        under ``jobs`` the runtime's task unit becomes the
        **word** index — word ``i`` draws from the child stream of
        ``(rng, i)`` — so any worker count is bit-identical.
        """
        return self._run_seeded(
            partial(self._rr_kernel, graph),
            count,
            rng,
            batch_mode,
            counter="rr.sets",
            cost=cost,
            sample_size=sample_size,
            jobs=jobs,
            telemetry=telemetry,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def _seeded_chunk_worker(payload, root_key: tuple, start: int, stop: int):
    """Run a batch kernel over task units ``start..stop-1`` of a seeded run.

    The one chunk worker of :meth:`DiffusionModel._run_seeded`: ``payload``
    is ``(kernel, count, bitparallel)``, and unit ``i`` (one sample, or the
    64-lane word of samples ``64*i ..`` when ``bitparallel``) draws from the
    child stream of ``(root_key, i)``, so results are independent of the
    chunk layout and worker count.  Module-level so it pickles into worker
    processes; the chunk's own accumulators come back for the parent to
    merge in chunk order.
    """
    from ..runtime.seeding import child_generator

    kernel, count, bitparallel = payload
    unit = _bp.LANES_PER_WORD if bitparallel else 1
    samples = min(count, stop * unit) - start * unit
    generators = map(partial(child_generator, root_key), range(start, stop))
    cost = TraversalCost()
    sample_size = SampleSize()
    return kernel(bitparallel, samples, generators, cost, sample_size), cost, sample_size


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
