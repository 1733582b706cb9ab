"""The run context: one object for the four cross-cutting execution knobs.

Every layer of the library is parameterised by the same four values — the
PRNG ``seed``, the worker count ``jobs``, an optional caller-owned
``executor``, and the diffusion ``model``.  Historically each entry point
accepted them as separate keyword arguments; :class:`RunContext` collapses
them into a single immutable object that every entry point now also accepts
as ``context=``, and that the declarative spec layer
(:mod:`repro.api.specs`) serializes as part of an experiment document.

Merge rule (implemented by :func:`resolve_context` and used identically
everywhere): **an explicit keyword argument wins over the context field**;
a keyword left at its ``None`` default falls back to the context, and with
no context the historical defaults apply (seed 0, serial single-stream
execution, independent cascade).  Passing the old kwargs and passing an
equivalent ``RunContext`` therefore produce equal outputs by construction.

``executor`` is a live process-pool handle and is deliberately excluded from
serialization: :meth:`RunContext.to_dict` raises when one is attached.
``telemetry`` is equally runtime-only but is *silently omitted* instead:
results embed their spec's dict, and attaching an observer must not make a
result unserializable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from .exceptions import SpecValidationError


def _require_mapping(data: Any, spec_name: str) -> None:
    """Shared ``from_dict`` guard: the payload must be a mapping."""
    if not isinstance(data, Mapping):
        raise SpecValidationError(
            f"{spec_name} expects a mapping, got {type(data).__name__}"
        )


def _check_unknown_keys(data: Mapping[str, Any], allowed: set, spec_name: str) -> None:
    """Shared ``from_dict`` guard: reject unknown keys, naming the offender."""
    for key in data:
        if key not in allowed:
            raise SpecValidationError(
                f"unknown key {key!r} for {spec_name}; "
                f"expected one of: {', '.join(sorted(allowed))}"
            )


class ResolvedContext(NamedTuple):
    """The knobs after merging explicit kwargs with a :class:`RunContext`."""

    seed: int
    jobs: int | None
    executor: Any | None
    model: Any | None
    telemetry: Any | None = None
    batch_mode: str | None = None


@dataclass(frozen=True)
class RunContext:
    """Seed, parallelism, and diffusion model for one experiment run.

    Parameters
    ----------
    seed:
        Master PRNG seed (the CLI's ``--run-seed``).  Entry points derive
        their sub-seeds from it exactly as they would from the equivalent
        ``seed=`` / ``experiment_seed=`` keyword.
    jobs:
        Worker-process count (the CLI's ``--jobs``).  ``None`` keeps the
        historical serial single-stream draw; any explicit value opts into
        the runtime's split-stream contract (bit-identical for every value).
    executor:
        Optional caller-owned :class:`~repro.runtime.executor.Executor`
        reused across calls.  Runtime-only: not serializable.
    model:
        Diffusion model name or :class:`~repro.diffusion.models.DiffusionModel`
        instance (the CLI's ``--diffusion``); ``None`` means the paper's
        independent cascade.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collecting counters
        and spans for this run.  Runtime-only like ``executor``: never
        serialized (silently omitted, since results embed their spec), and
        ``None`` means the strict no-op :data:`~repro.obs.telemetry.NULL_TELEMETRY`.
    batch_mode:
        Simulation batching strategy (the CLI's ``--batch-mode``):
        ``"scalar"`` for the golden per-simulation kernels, ``"bitparallel"``
        for the opt-in 64-worlds-per-word fast path (different draw-order
        contract; see :mod:`repro.diffusion.bitparallel`).  ``None`` means
        ``"scalar"``.
    """

    seed: int = 0
    jobs: int | None = None
    executor: Any | None = None
    model: Any | None = None
    telemetry: Any | None = None
    batch_mode: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecValidationError(
                f"RunContext.seed must be an int, got {type(self.seed).__name__}"
            )
        if self.jobs is not None and (
            not isinstance(self.jobs, int) or isinstance(self.jobs, bool) or self.jobs < 1
        ):
            raise SpecValidationError(
                f"RunContext.jobs must be a positive int or None, got {self.jobs!r}"
            )
        if self.batch_mode is not None:
            # Eager validation mirroring the model-name check below.
            from .diffusion.bitparallel import require_batch_mode
            from .exceptions import ReproError

            try:
                require_batch_mode(self.batch_mode)
            except ReproError as error:
                raise SpecValidationError(str(error)) from None
        if isinstance(self.model, str):
            # Eager name validation: fail at construction (and from_dict)
            # time with the registry's message, not deep inside a run.
            from .diffusion.models import get_model
            from .exceptions import ReproError

            try:
                get_model(self.model)
            except ReproError as error:
                raise SpecValidationError(str(error)) from None

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict (non-default fields only)."""
        if self.executor is not None:
            raise SpecValidationError(
                "a RunContext holding a live executor cannot be serialized; "
                "attach executors only to in-process contexts"
            )
        out: dict[str, Any] = {}
        if self.seed != 0:
            out["seed"] = self.seed
        if self.jobs is not None:
            out["jobs"] = self.jobs
        if self.model is not None:
            model = self.model
            out["model"] = model if isinstance(model, str) else model.name
        if self.batch_mode is not None:
            out["batch_mode"] = self.batch_mode
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunContext":
        """Deserialize; unknown keys are rejected with the offending key named."""
        _require_mapping(data, "RunContext")
        allowed = {field.name for field in dataclasses.fields(cls)} - {
            "executor",
            "telemetry",
        }
        _check_unknown_keys(data, allowed, "RunContext")
        return cls(**dict(data))


def resolve_context(
    context: RunContext | None,
    *,
    seed: Any | None = None,
    jobs: int | None = None,
    executor: Any | None = None,
    model: Any | None = None,
    telemetry: Any | None = None,
    batch_mode: str | None = None,
) -> ResolvedContext:
    """Merge explicit per-call kwargs with an optional :class:`RunContext`.

    Explicit (non-``None``) kwargs always win; ``None`` falls back to the
    context field and finally to the historical defaults (seed ``0``,
    serial execution, IC, no telemetry, scalar batching), so legacy call
    sites that never pass ``context=`` behave exactly as before.
    """
    if context is None:
        return ResolvedContext(
            seed if seed is not None else 0, jobs, executor, model, telemetry, batch_mode
        )
    return ResolvedContext(
        seed if seed is not None else context.seed,
        jobs if jobs is not None else context.jobs,
        executor if executor is not None else context.executor,
        model if model is not None else context.model,
        telemetry if telemetry is not None else context.telemetry,
        batch_mode if batch_mode is not None else context.batch_mode,
    )
