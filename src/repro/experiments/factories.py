"""Named estimator factories used by the experiment harness and benchmarks.

Experiments are usually configured with strings ("oneshot", "snapshot",
"ris"); this module maps those names to factory callables compatible with
:data:`repro.experiments.trials.EstimatorFactory`.

All factories are module-level functions (not lambdas) so they pickle into
worker processes, which is what lets :func:`repro.experiments.trials.run_trials`
fan trials out across a process pool.  :func:`estimator_factory` can also
bind a ``jobs``/``executor`` setting into the returned factory for the
approaches whose Build phase supports parallel sampling (Snapshot and RIS) —
avoid combining that with trial-level parallelism (nesting process pools
multiplies workers without adding CPUs) — and a diffusion ``model`` for the
sampling approaches (Oneshot, Snapshot, RIS).  The structural heuristics
(degree, single discount, random) never sample the diffusion process, so a
``model`` binding is meaningless for them and is ignored.
"""

from __future__ import annotations

import functools
from typing import Callable

from ..algorithms.framework import InfluenceEstimator
from ..context import RunContext, resolve_context
from ..algorithms.heuristics import (
    DegreeEstimator,
    RandomEstimator,
    SingleDiscountEstimator,
    WeightedDegreeEstimator,
)
from ..algorithms.oneshot import OneshotEstimator
from ..algorithms.ris import RISEstimator
from ..algorithms.snapshot import SnapshotEstimator
from ..diffusion.models import resolve_model
from ..exceptions import InvalidParameterError

#: Names of the three approaches studied by the paper, in its order.
PAPER_APPROACHES: tuple[str, ...] = ("oneshot", "snapshot", "ris")


def _make_oneshot(num_samples: int, *, model=None, batch_mode=None) -> InfluenceEstimator:
    return OneshotEstimator(num_samples, model=model, batch_mode=batch_mode)


def _make_snapshot(
    num_samples: int, *, jobs=None, executor=None, model=None
) -> InfluenceEstimator:
    return SnapshotEstimator(num_samples, model=model, jobs=jobs, executor=executor)


def _make_snapshot_reduce(
    num_samples: int, *, jobs=None, executor=None, model=None
) -> InfluenceEstimator:
    return SnapshotEstimator(
        num_samples, update_strategy="reduce", model=model, jobs=jobs, executor=executor
    )


def _make_ris(
    num_samples: int, *, jobs=None, executor=None, model=None, batch_mode=None
) -> InfluenceEstimator:
    return RISEstimator(
        num_samples, model=model, jobs=jobs, executor=executor, batch_mode=batch_mode
    )


def _make_degree(_num_samples: int) -> InfluenceEstimator:
    return DegreeEstimator()


def _make_weighted_degree(_num_samples: int) -> InfluenceEstimator:
    return WeightedDegreeEstimator()


def _make_single_discount(_num_samples: int) -> InfluenceEstimator:
    return SingleDiscountEstimator()


def _make_random(_num_samples: int) -> InfluenceEstimator:
    return RandomEstimator()


_FACTORIES: dict[str, Callable[[int], InfluenceEstimator]] = {
    "oneshot": _make_oneshot,
    "snapshot": _make_snapshot,
    "snapshot_reduce": _make_snapshot_reduce,
    "ris": _make_ris,
    "degree": _make_degree,
    "weighted_degree": _make_weighted_degree,
    "single_discount": _make_single_discount,
    "random": _make_random,
}

#: Approaches whose Build phase accepts ``jobs``/``executor``.
_PARALLEL_BUILD: frozenset[str] = frozenset({"snapshot", "snapshot_reduce", "ris"})

#: Approaches that sample the diffusion process and therefore accept ``model``.
_MODEL_AWARE: frozenset[str] = frozenset({"oneshot", "snapshot", "snapshot_reduce", "ris"})

#: Approaches whose *sampling* has a bit-parallel mode (the forward-cascade
#: and RR-set kernels).  Snapshot sampling stays scalar; the snapshot
#: approaches' reachability queries always run 64 snapshots per word, exactly,
#: with no mode to choose.
_BATCH_AWARE: frozenset[str] = frozenset({"oneshot", "ris"})


def available_approaches() -> tuple[str, ...]:
    """Names accepted by :func:`estimator_factory`."""
    return tuple(sorted(_FACTORIES))


def estimator_factory(
    approach: str,
    *,
    jobs: int | None = None,
    executor=None,
    model=None,
    context: RunContext | None = None,
    batch_mode: str | None = None,
) -> Callable[[int], InfluenceEstimator]:
    """Return the factory for ``approach`` (e.g. ``"oneshot"``).

    With ``jobs``/``executor``, approaches supporting parallel Build get the
    setting bound into the factory (as a picklable ``functools.partial``);
    approaches without a parallel Build return the plain factory.  ``model``
    (a diffusion-model name or instance) is bound the same way for the
    sampling approaches; the structural heuristics ignore it because they
    never simulate diffusion.  ``batch_mode`` is bound for the approaches
    with a bit-parallel fast path (Oneshot and RIS) and ignored elsewhere.
    ``context`` supplies any of the knobs left at ``None`` (an explicit
    kwarg always wins).
    """
    _, jobs, executor, model, _, batch_mode = resolve_context(
        context, jobs=jobs, executor=executor, model=model, batch_mode=batch_mode
    )
    try:
        base = _FACTORIES[approach]
    except KeyError:
        raise InvalidParameterError(
            f"unknown approach {approach!r}; available: {', '.join(sorted(_FACTORIES))}"
        ) from None
    kwargs: dict[str, object] = {}
    if (jobs is not None or executor is not None) and approach in _PARALLEL_BUILD:
        kwargs["jobs"] = jobs
        kwargs["executor"] = executor
    if model is not None and approach in _MODEL_AWARE:
        kwargs["model"] = resolve_model(model)
    if batch_mode is not None and approach in _BATCH_AWARE:
        kwargs["batch_mode"] = batch_mode
    if not kwargs:
        return base
    return functools.partial(base, **kwargs)


def make_estimator(
    approach: str,
    num_samples: int,
    *,
    jobs: int | None = None,
    executor=None,
    model=None,
    context: RunContext | None = None,
    batch_mode: str | None = None,
) -> InfluenceEstimator:
    """Construct one estimator instance for ``approach`` with ``num_samples``."""
    return estimator_factory(
        approach,
        jobs=jobs,
        executor=executor,
        model=model,
        context=context,
        batch_mode=batch_mode,
    )(num_samples)
