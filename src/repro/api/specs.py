"""Typed, serializable experiment specs: a whole experiment as one document.

Every spec is a frozen dataclass with eager field validation (bad dataset /
approach / probability / diffusion-model names fail at construction time),
``to_dict()`` emitting a compact JSON-compatible dict (defaults omitted), and
``from_dict()`` that rejects unknown keys naming the offending key — so a
typo in a config file is a hard error, never a silently ignored setting.

Composition mirrors the paper's methodology:

* :class:`GraphSpec` — the influence instance: a registry ``dataset``, an
  ``edge_list`` file, or a synthetic ``generator``, plus the edge-probability
  scheme and (for edge lists) the duplicate-arc policy.
* :class:`~repro.context.RunContext` — seed / jobs / diffusion model /
  batch mode, shared by every experiment kind.
* :class:`EstimatorSpec` — approach name + sample number, resolved through
  :func:`repro.experiments.factories.estimator_factory`.
* The experiment specs (:class:`StatsSpec`, :class:`MaximizeSpec`,
  :class:`TrialsSpec`, :class:`SweepSpec`, :class:`TraversalSpec`) — one per
  workflow, each tagged with a ``kind`` so :func:`spec_from_dict` can
  dispatch a raw JSON document.

Determinism contract: a spec plus its context seed fully pins the run —
:func:`repro.api.runner.run` on equal specs returns identical results, equal
to what the legacy keyword-argument entry points produce for the same
parameters (see ``docs/DESIGN.md``).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Mapping

from ..context import RunContext, _check_unknown_keys, _require_mapping, _require_seed
from ..exceptions import SpecValidationError
from ..graphs import generators
from ..graphs.datasets import list_datasets
from ..graphs.influence_graph import InfluenceGraph
from ..graphs.probability import (
    PROBABILITY_MODELS,
    assign_probabilities,
    is_valid_probability_model,
)

#: Synthetic generators selectable from :class:`GraphSpec` (name -> builder).
GRAPH_GENERATORS: dict[str, Callable[..., InfluenceGraph]] = {
    name: getattr(generators, name)
    for name in (
        "erdos_renyi",
        "barabasi_albert",
        "watts_strogatz",
        "powerlaw_cluster",
        "directed_scale_free",
        "core_whisker",
        "star",
        "path",
        "complete",
    )
}

#: Accepted duplicate-arc policies (mirrors ``repro.graphs.io.read_edge_list``).
DUPLICATE_POLICIES: tuple[str, ...] = ("error", "first", "last", "allow")


class _SpecBase:
    """Shared ``to_dict``/``from_dict`` machinery for all spec dataclasses.

    Subclasses declare ``_nested`` (field name -> spec class with its own
    ``from_dict``) and ``_tuple_fields`` (fields whose JSON form is a list).
    ``to_dict`` omits fields equal to their default so spec documents stay
    minimal; ``from_dict`` fills the omitted defaults back in, making
    ``from_dict(to_dict(spec)) == spec`` for every valid spec.
    """

    kind: ClassVar[str | None] = None
    _nested: ClassVar[dict[str, type]] = {}
    _tuple_fields: ClassVar[frozenset[str]] = frozenset()

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict (defaults omitted)."""
        out: dict[str, Any] = {}
        if self.kind is not None:
            out["kind"] = self.kind
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.default is not dataclasses.MISSING:
                default = spec_field.default
            elif spec_field.default_factory is not dataclasses.MISSING:
                default = spec_field.default_factory()
            else:
                default = dataclasses.MISSING
            if value == default:
                continue
            if hasattr(value, "to_dict") and spec_field.name in self._nested:
                serialized: Any = value.to_dict()
                # A nested spec serializing to {} is all-default (it may still
                # differ from the default object via runtime-only state such
                # as an attached telemetry); omit it to keep documents
                # minimal and the from_dict round-trip exact.
                if serialized == {}:
                    continue
            elif isinstance(value, tuple):
                serialized = list(value)
            else:
                serialized = value
            out[spec_field.name] = serialized
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Deserialize; unknown keys are rejected with the offending key named."""
        _require_mapping(data, cls.__name__)
        payload = dict(data)
        if cls.kind is not None and "kind" in payload:
            declared = payload.pop("kind")
            if declared != cls.kind:
                raise SpecValidationError(
                    f"{cls.__name__} expects kind={cls.kind!r}, got {declared!r}"
                )
        allowed = {spec_field.name for spec_field in dataclasses.fields(cls)}
        _check_unknown_keys(payload, allowed, cls.__name__)
        kwargs: dict[str, Any] = {}
        for name, value in payload.items():
            if name in cls._nested and isinstance(value, Mapping):
                value = cls._nested[name].from_dict(value)
            elif name in cls._tuple_fields and isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Deserialize from a JSON string."""
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphSpec(_SpecBase):
    """Declarative influence-graph instance.

    Exactly one source must be set:

    * ``dataset`` — a registry name (``scale`` and ``seed`` apply);
    * ``edge_list`` — path to a text edge list (``directed`` and the
      ``on_duplicate`` policy apply);
    * ``generator`` — a :data:`GRAPH_GENERATORS` name with
      ``generator_params`` passed through verbatim (``seed`` is injected for
      generators that accept it and do not receive one explicitly).

    ``probability`` optionally assigns an edge-probability scheme afterwards
    (any :data:`~repro.graphs.probability.PROBABILITY_MODELS` name or
    ``uc<value>``; ``probability_seed`` feeds the stochastic ``trivalency``
    scheme).

    Fields that do not apply to the chosen source are rejected when set to a
    non-default value (``scale``/``seed`` for edge lists, ``directed``/
    ``on_duplicate`` for datasets and generators, ...) — a setting in the
    document either takes effect or is an error, never silently ignored.

    ``generator_params`` accepts a mapping but is stored as a sorted tuple
    of ``(key, value)`` pairs, keeping every spec hashable (usable as a
    dict key for result caches).
    """

    dataset: str | None = None
    edge_list: str | None = None
    generator: str | None = None
    generator_params: Any = ()
    scale: float = 1.0
    seed: int = 0
    directed: bool = True
    on_duplicate: str = "error"
    probability: str | None = None
    probability_seed: int = 0

    def __post_init__(self) -> None:
        sources = [
            name
            for name, value in (
                ("dataset", self.dataset),
                ("edge_list", self.edge_list),
                ("generator", self.generator),
            )
            if value is not None
        ]
        if len(sources) != 1:
            raise SpecValidationError(
                "GraphSpec requires exactly one of dataset/edge_list/generator, "
                f"got {sources or 'none'}"
            )
        source = sources[0]
        if self.dataset is not None and self.dataset not in list_datasets():
            raise SpecValidationError(
                f"unknown dataset {self.dataset!r}; "
                f"available: {', '.join(list_datasets())}"
            )
        if self.generator is not None and self.generator not in GRAPH_GENERATORS:
            raise SpecValidationError(
                f"unknown generator {self.generator!r}; "
                f"available: {', '.join(sorted(GRAPH_GENERATORS))}"
            )
        params = self.generator_params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        elif isinstance(params, (list, tuple)):
            params = tuple(
                tuple(pair) if isinstance(pair, list) else pair for pair in params
            )
        else:
            raise SpecValidationError(
                "GraphSpec.generator_params must be a mapping, "
                f"got {type(params).__name__}"
            )
        for pair in params:
            if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)):
                raise SpecValidationError(
                    "GraphSpec.generator_params entries must map string "
                    f"parameter names to values, got {pair!r}"
                )
        object.__setattr__(self, "generator_params", params)
        if self.on_duplicate not in DUPLICATE_POLICIES:
            raise SpecValidationError(
                f"unknown on_duplicate policy {self.on_duplicate!r}; "
                f"expected one of: {', '.join(DUPLICATE_POLICIES)}"
            )
        _require_positive_number(self.scale, "GraphSpec.scale")
        _require_seed(self.seed, "GraphSpec.seed")
        _require_seed(self.probability_seed, "GraphSpec.probability_seed")
        # Reject non-default settings that the chosen source would ignore:
        # a field in the document either takes effect or is an error.
        inapplicable = {
            "dataset": (("generator_params", ()), ("directed", True), ("on_duplicate", "error")),
            "edge_list": (("generator_params", ()), ("scale", 1.0), ("seed", 0)),
            "generator": (("scale", 1.0), ("directed", True), ("on_duplicate", "error")),
        }
        for field_name, default in inapplicable[source]:
            if getattr(self, field_name) != default:
                raise SpecValidationError(
                    f"GraphSpec.{field_name} does not apply to a {source} "
                    "source and would be ignored; remove it"
                )
        if self.probability is not None and not is_valid_probability_model(
            self.probability
        ):
            raise SpecValidationError(
                f"unknown probability model {self.probability!r}; expected one "
                f"of {', '.join(PROBABILITY_MODELS)} or uc<value>"
            )

    def resolve(self) -> InfluenceGraph:
        """Build the graph (and assign probabilities) this spec describes."""
        if self.dataset is not None:
            from ..graphs.datasets import load_dataset

            graph = load_dataset(self.dataset, scale=float(self.scale), seed=self.seed)
        elif self.edge_list is not None:
            from ..graphs.io import read_edge_list

            graph = read_edge_list(
                self.edge_list, directed=self.directed, on_duplicate=self.on_duplicate
            )
        else:
            builder = GRAPH_GENERATORS[self.generator]
            params = dict(self.generator_params)
            accepts_seed = "seed" in inspect.signature(builder).parameters
            if accepts_seed and "seed" not in params:
                params["seed"] = self.seed
            graph = builder(**params)
        if self.probability is not None:
            graph = assign_probabilities(
                graph, self.probability, seed=self.probability_seed
            )
        return graph

    def to_dict(self) -> dict[str, Any]:
        """Serialize (``generator_params`` re-emitted as a JSON object)."""
        out = super().to_dict()
        if "generator_params" in out:
            out["generator_params"] = dict(self.generator_params)
        return out


@dataclass(frozen=True)
class EstimatorSpec(_SpecBase):
    """Approach name plus its sample number (beta, tau, or theta).

    ``batch_mode`` opts the approaches with a bit-parallel fast path
    (Oneshot, RIS) into the 64-worlds-per-word kernels
    (:mod:`repro.diffusion.bitparallel`); ``None`` (the default) defers to
    ``context.batch_mode`` and then the golden scalar stream.
    """

    approach: str = "ris"
    num_samples: int = 1024
    batch_mode: str | None = None

    def __post_init__(self) -> None:
        from ..experiments.factories import available_approaches

        if self.approach not in available_approaches():
            raise SpecValidationError(
                f"unknown approach {self.approach!r}; "
                f"available: {', '.join(available_approaches())}"
            )
        if not isinstance(self.num_samples, int) or isinstance(self.num_samples, bool) \
                or self.num_samples < 1:
            raise SpecValidationError(
                f"EstimatorSpec.num_samples must be a positive int, "
                f"got {self.num_samples!r}"
            )
        if self.batch_mode is not None:
            from ..diffusion.bitparallel import require_batch_mode
            from ..exceptions import ReproError

            try:
                require_batch_mode(self.batch_mode)
            except ReproError as error:
                raise SpecValidationError(str(error)) from None


def _require_positive(value: Any, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecValidationError(f"{name} must be a positive int, got {value!r}")


def _require_positive_number(value: Any, name: str) -> None:
    # JSON documents may carry NaN and Infinity; neither is a usable size.
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or (isinstance(value, float) and not math.isfinite(value))
        or value <= 0
    ):
        raise SpecValidationError(f"{name} must be a finite positive number, got {value!r}")


# --------------------------------------------------------------------------- #
# experiment specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StatsSpec(_SpecBase):
    """Network-statistics experiment (the CLI's ``stats``; Table 3)."""

    kind: ClassVar[str] = "stats"
    _nested: ClassVar[dict[str, type]] = {"context": RunContext}

    dataset: str = "all"
    scale: float = 1.0
    context: RunContext = field(default_factory=RunContext)

    def __post_init__(self) -> None:
        if self.dataset != "all" and self.dataset not in list_datasets():
            raise SpecValidationError(
                f"unknown dataset {self.dataset!r}; expected 'all' or one of: "
                f"{', '.join(list_datasets())}"
            )
        _require_positive_number(self.scale, "StatsSpec.scale")


@dataclass(frozen=True)
class MaximizeSpec(_SpecBase):
    """One greedy seed-selection run scored by the shared RR-pool oracle."""

    kind: ClassVar[str] = "maximize"
    _nested: ClassVar[dict[str, type]] = {
        "graph": GraphSpec,
        "estimator": EstimatorSpec,
        "context": RunContext,
    }

    graph: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="karate"))
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    k: int = 4
    pool_size: int = 20_000
    context: RunContext = field(default_factory=RunContext)

    def __post_init__(self) -> None:
        _require_positive(self.k, "MaximizeSpec.k")
        _require_positive(self.pool_size, "MaximizeSpec.pool_size")


@dataclass(frozen=True)
class TrialsSpec(_SpecBase):
    """Repeated independent trials of one configuration (Section 4)."""

    kind: ClassVar[str] = "trials"
    _nested: ClassVar[dict[str, type]] = {
        "graph": GraphSpec,
        "estimator": EstimatorSpec,
        "context": RunContext,
    }

    graph: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="karate"))
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    k: int = 1
    num_trials: int = 20
    pool_size: int = 20_000
    context: RunContext = field(default_factory=RunContext)

    def __post_init__(self) -> None:
        _require_positive(self.k, "TrialsSpec.k")
        _require_positive(self.num_trials, "TrialsSpec.num_trials")
        _require_positive(self.pool_size, "TrialsSpec.pool_size")


@dataclass(frozen=True)
class SweepSpec(_SpecBase):
    """Sample-number sweep of one approach (Figures 1 / 4 methodology).

    The grid is either the power-of-two span ``2^min_exponent ..
    2^max_exponent`` (the paper's axes) or an explicit ``sample_numbers``
    list; setting both is rejected.
    """

    kind: ClassVar[str] = "sweep"
    _nested: ClassVar[dict[str, type]] = {"graph": GraphSpec, "context": RunContext}
    _tuple_fields: ClassVar[frozenset[str]] = frozenset({"sample_numbers"})

    graph: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="karate"))
    approach: str = "ris"
    k: int = 1
    max_exponent: int | None = None
    min_exponent: int = 0
    sample_numbers: tuple[int, ...] | None = None
    num_trials: int = 20
    pool_size: int = 20_000
    context: RunContext = field(default_factory=RunContext)

    def __post_init__(self) -> None:
        from ..experiments.factories import available_approaches

        if self.approach not in available_approaches():
            raise SpecValidationError(
                f"unknown approach {self.approach!r}; "
                f"available: {', '.join(available_approaches())}"
            )
        _require_positive(self.k, "SweepSpec.k")
        _require_positive(self.num_trials, "SweepSpec.num_trials")
        _require_positive(self.pool_size, "SweepSpec.pool_size")
        if self.sample_numbers is not None:
            if self.max_exponent is not None:
                raise SpecValidationError(
                    "SweepSpec accepts either sample_numbers or "
                    "max_exponent/min_exponent, not both"
                )
            if not self.sample_numbers:
                raise SpecValidationError("SweepSpec.sample_numbers must not be empty")
            for value in self.sample_numbers:
                _require_positive(value, "SweepSpec.sample_numbers entries")
        else:
            if self.max_exponent is None:
                raise SpecValidationError(
                    "SweepSpec requires max_exponent or sample_numbers"
                )
            if self.min_exponent < 0 or self.max_exponent < self.min_exponent:
                raise SpecValidationError(
                    f"SweepSpec exponents must satisfy 0 <= min_exponent "
                    f"({self.min_exponent}) <= max_exponent ({self.max_exponent})"
                )

    def grid(self) -> tuple[int, ...]:
        """The swept sample numbers in increasing order."""
        if self.sample_numbers is not None:
            return tuple(sorted(set(int(s) for s in self.sample_numbers)))
        from ..experiments.sweeps import powers_of_two

        return powers_of_two(self.max_exponent, min_exponent=self.min_exponent)


@dataclass(frozen=True)
class TraversalSpec(_SpecBase):
    """Per-sample traversal-cost measurement (Table 8 methodology)."""

    kind: ClassVar[str] = "traversal"
    _nested: ClassVar[dict[str, type]] = {"graph": GraphSpec, "context": RunContext}
    _tuple_fields: ClassVar[frozenset[str]] = frozenset({"approaches"})

    graph: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="karate"))
    approaches: tuple[str, ...] = ("oneshot", "snapshot", "ris")
    k: int = 1
    num_samples: int = 1
    repetitions: int = 3
    context: RunContext = field(default_factory=RunContext)

    def __post_init__(self) -> None:
        from ..experiments.factories import available_approaches

        if not self.approaches:
            raise SpecValidationError("TraversalSpec.approaches must not be empty")
        for approach in self.approaches:
            if approach not in available_approaches():
                raise SpecValidationError(
                    f"unknown approach {approach!r}; "
                    f"available: {', '.join(available_approaches())}"
                )
        _require_positive(self.k, "TraversalSpec.k")
        _require_positive(self.num_samples, "TraversalSpec.num_samples")
        _require_positive(self.repetitions, "TraversalSpec.repetitions")


#: Experiment spec classes by their ``kind`` tag.
SPEC_KINDS: dict[str, type[_SpecBase]] = {
    spec.kind: spec
    for spec in (StatsSpec, MaximizeSpec, TrialsSpec, SweepSpec, TraversalSpec)
}

#: Union of all experiment spec types (for annotations and isinstance checks).
ExperimentSpec = StatsSpec | MaximizeSpec | TrialsSpec | SweepSpec | TraversalSpec


def spec_from_dict(data: Mapping[str, Any]) -> ExperimentSpec:
    """Deserialize any experiment spec, dispatching on its ``kind`` tag."""
    _require_mapping(data, "experiment spec")
    try:
        kind = data["kind"]
    except KeyError:
        raise SpecValidationError(
            f"experiment spec requires a 'kind' key; "
            f"expected one of: {', '.join(sorted(SPEC_KINDS))}"
        ) from None
    try:
        spec_class = SPEC_KINDS[kind]
    except KeyError:
        raise SpecValidationError(
            f"unknown experiment kind {kind!r}; "
            f"expected one of: {', '.join(sorted(SPEC_KINDS))}"
        ) from None
    return spec_class.from_dict(data)


def load_spec(path: "str | Path") -> ExperimentSpec:
    """Read and deserialize an experiment spec from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SpecValidationError(f"{path} is not valid JSON: {error}") from None
    return spec_from_dict(data)
