"""Spec serialization: round-tripping, unknown-key rejection, eager validation."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import (
    GRAPH_GENERATORS,
    SPEC_KINDS,
    EstimatorSpec,
    GraphSpec,
    MaximizeSpec,
    StatsSpec,
    SweepSpec,
    TraversalSpec,
    TrialsSpec,
    load_spec,
    spec_from_dict,
)
from repro.context import RunContext
from repro.exceptions import SpecValidationError
from repro.experiments.factories import available_approaches
from repro.graphs.datasets import list_datasets

# --------------------------------------------------------------------------- #
# strategies over valid spec fields
# --------------------------------------------------------------------------- #
approaches = st.sampled_from(available_approaches())
datasets = st.sampled_from(list_datasets())
probabilities = st.one_of(
    st.none(), st.sampled_from(["uc0.1", "uc0.01", "iwc", "owc", "trivalency", "uc0.05"])
)
positive_ints = st.integers(min_value=1, max_value=10_000)
seeds = st.integers(min_value=0, max_value=2**31)

contexts = st.builds(
    RunContext,
    seed=seeds,
    jobs=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    model=st.one_of(st.none(), st.sampled_from(["ic", "lt"])),
)

graph_specs = st.one_of(
    st.builds(
        GraphSpec,
        dataset=datasets,
        probability=probabilities,
        scale=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
        seed=seeds,
        probability_seed=seeds,
    ),
    st.builds(
        GraphSpec,
        generator=st.sampled_from(sorted(GRAPH_GENERATORS)),
        generator_params=st.dictionaries(
            st.sampled_from(["n", "m", "p"]), st.integers(1, 100), max_size=2
        ),
        probability=probabilities,
        seed=seeds,
    ),
    st.builds(
        GraphSpec,
        edge_list=st.just("edges.txt"),
        directed=st.booleans(),
        on_duplicate=st.sampled_from(["error", "first", "last", "allow"]),
        probability=probabilities,
    ),
)

estimator_specs = st.builds(
    EstimatorSpec, approach=approaches, num_samples=positive_ints
)

stats_specs = st.builds(
    StatsSpec,
    dataset=st.one_of(st.just("all"), datasets),
    scale=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    context=contexts,
)
maximize_specs = st.builds(
    MaximizeSpec,
    graph=graph_specs,
    estimator=estimator_specs,
    k=positive_ints,
    pool_size=positive_ints,
    context=contexts,
)
trials_specs = st.builds(
    TrialsSpec,
    graph=graph_specs,
    estimator=estimator_specs,
    k=positive_ints,
    num_trials=positive_ints,
    pool_size=positive_ints,
    context=contexts,
)
sweep_specs = st.one_of(
    st.builds(
        SweepSpec,
        graph=graph_specs,
        approach=approaches,
        k=positive_ints,
        max_exponent=st.integers(min_value=0, max_value=20),
        num_trials=positive_ints,
        pool_size=positive_ints,
        context=contexts,
    ),
    st.builds(
        SweepSpec,
        graph=graph_specs,
        approach=approaches,
        k=positive_ints,
        sample_numbers=st.lists(
            positive_ints, min_size=1, max_size=6, unique=True
        ).map(tuple),
        num_trials=positive_ints,
        pool_size=positive_ints,
        context=contexts,
    ),
)
traversal_specs = st.builds(
    TraversalSpec,
    graph=graph_specs,
    approaches=st.lists(approaches, min_size=1, max_size=4, unique=True).map(tuple),
    k=positive_ints,
    num_samples=positive_ints,
    repetitions=positive_ints,
    context=contexts,
)

all_experiment_specs = st.one_of(
    stats_specs, maximize_specs, trials_specs, sweep_specs, traversal_specs
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=graph_specs)
    def test_graph_spec(self, spec):
        assert GraphSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(spec=estimator_specs)
    def test_estimator_spec(self, spec):
        assert EstimatorSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(context=contexts)
    def test_run_context(self, context):
        assert RunContext.from_dict(context.to_dict()) == context

    @settings(max_examples=80, deadline=None)
    @given(spec=all_experiment_specs)
    def test_experiment_specs(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec

    @settings(max_examples=80, deadline=None)
    @given(spec=all_experiment_specs)
    def test_kind_dispatch_and_json(self, spec):
        document = json.loads(json.dumps(spec.to_dict()))
        assert spec_from_dict(document) == spec

    def test_defaults_are_omitted(self):
        spec = MaximizeSpec(graph=GraphSpec(dataset="karate", probability="uc0.1"))
        document = spec.to_dict()
        assert document == {
            "kind": "maximize",
            "graph": {"dataset": "karate", "probability": "uc0.1"},
        }
        assert MaximizeSpec.from_dict(document) == spec


# --------------------------------------------------------------------------- #
# field coverage: every serialized field round-trips at a non-default value
# --------------------------------------------------------------------------- #
_CONTEXT = RunContext(seed=7, jobs=2, model="lt", batch_mode="bitparallel")
_GRAPH = GraphSpec(
    dataset="karate", scale=0.5, seed=3, probability="trivalency", probability_seed=5
)
_ESTIMATOR = EstimatorSpec(approach="oneshot", num_samples=64, batch_mode="bitparallel")

#: One instance per source or grid form (the forms exclude each other);
#: together they set every field of every serialized class to a non-default
#: value, which ``test_table_sets_every_field`` checks.
FIELD_COVERAGE_TABLE = {
    "graph-dataset": _GRAPH,
    "graph-edge-list": GraphSpec(edge_list="edges.txt", directed=False, on_duplicate="first"),
    "graph-generator": GraphSpec(generator="star", generator_params={"num_leaves": 5}),
    "estimator": _ESTIMATOR,
    "context": _CONTEXT,
    "stats": StatsSpec(dataset="karate", scale=0.5, context=_CONTEXT),
    "maximize": MaximizeSpec(
        graph=_GRAPH, estimator=_ESTIMATOR, k=2, pool_size=500, context=_CONTEXT
    ),
    "trials": TrialsSpec(
        graph=_GRAPH, estimator=_ESTIMATOR, k=2, num_trials=3, pool_size=500,
        context=_CONTEXT,
    ),
    "sweep-exponents": SweepSpec(
        graph=_GRAPH, approach="snapshot", k=2, min_exponent=1, max_exponent=4,
        num_trials=3, pool_size=500, context=_CONTEXT,
    ),
    "sweep-sample-numbers": SweepSpec(sample_numbers=(2, 8)),
    "traversal": TraversalSpec(
        graph=_GRAPH, approaches=("ris",), k=2, num_samples=4, repetitions=2,
        context=_CONTEXT,
    ),
}


def _non_default_fields(instance) -> set[tuple[str, str]]:
    """``(class, field)`` for each non-default field, nested specs included."""
    found = set()
    for spec_field in dataclasses.fields(instance):
        value = getattr(instance, spec_field.name)
        default = (
            spec_field.default
            if spec_field.default is not dataclasses.MISSING
            else spec_field.default_factory()
        )
        if value != default:
            found.add((type(instance).__name__, spec_field.name))
        if dataclasses.is_dataclass(value):
            found |= _non_default_fields(value)
    return found


class TestFieldCoverage:
    """Every spec field survives ``to_dict``/``from_dict`` at a non-default value."""

    @pytest.mark.parametrize(
        "spec", FIELD_COVERAGE_TABLE.values(), ids=FIELD_COVERAGE_TABLE.keys()
    )
    def test_round_trip_through_json(self, spec):
        document = json.loads(json.dumps(spec.to_dict()))
        assert type(spec).from_dict(document) == spec

    def test_table_sets_every_field(self):
        # A new field fails here until the table sets it (and so round-trips it).
        serialized = (GraphSpec, EstimatorSpec, RunContext, *SPEC_KINDS.values())
        expected = {
            (cls.__name__, spec_field.name)
            for cls in serialized
            for spec_field in dataclasses.fields(cls)
        } - {("RunContext", "telemetry")}
        covered = set().union(*map(_non_default_fields, FIELD_COVERAGE_TABLE.values()))
        assert covered == expected


class TestUnknownKeys:
    @pytest.mark.parametrize("kind, spec_class", sorted(SPEC_KINDS.items()))
    def test_experiment_spec_unknown_key_is_named(self, kind, spec_class):
        with pytest.raises(SpecValidationError, match="'frobnicate'"):
            spec_class.from_dict({"kind": kind, "frobnicate": 1})

    def test_graph_spec_unknown_key_is_named(self):
        with pytest.raises(SpecValidationError, match="'colour'"):
            GraphSpec.from_dict({"dataset": "karate", "colour": "red"})

    def test_nested_unknown_key_is_named(self):
        with pytest.raises(SpecValidationError, match="'colour'"):
            MaximizeSpec.from_dict(
                {"kind": "maximize", "graph": {"dataset": "karate", "colour": "red"}}
            )

    def test_run_context_unknown_key_is_named(self):
        with pytest.raises(SpecValidationError, match="'threads'"):
            RunContext.from_dict({"threads": 4})

    def test_executor_is_not_a_spec_key(self):
        with pytest.raises(SpecValidationError, match="'executor'"):
            RunContext.from_dict({"executor": None})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SpecValidationError, match="kind='maximize'"):
            MaximizeSpec.from_dict({"kind": "sweep"})

    def test_missing_kind_rejected(self):
        with pytest.raises(SpecValidationError, match="'kind'"):
            spec_from_dict({"graph": {"dataset": "karate"}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecValidationError, match="'percolate'"):
            spec_from_dict({"kind": "percolate"})


class TestEagerValidation:
    def test_unknown_dataset(self):
        with pytest.raises(SpecValidationError, match="'not_a_graph'"):
            GraphSpec(dataset="not_a_graph")

    def test_unknown_generator(self):
        with pytest.raises(SpecValidationError, match="'maze'"):
            GraphSpec(generator="maze")

    def test_unknown_probability_model(self):
        with pytest.raises(SpecValidationError, match="'uc2'"):
            GraphSpec(dataset="karate", probability="uc2")

    def test_unknown_duplicate_policy(self):
        with pytest.raises(SpecValidationError, match="'maybe'"):
            GraphSpec(edge_list="edges.txt", on_duplicate="maybe")

    def test_two_sources_rejected(self):
        with pytest.raises(SpecValidationError, match="exactly one"):
            GraphSpec(dataset="karate", edge_list="edges.txt")

    def test_no_source_rejected(self):
        with pytest.raises(SpecValidationError, match="exactly one"):
            GraphSpec()

    def test_unknown_approach(self):
        with pytest.raises(SpecValidationError, match="'magic'"):
            EstimatorSpec(approach="magic")

    def test_unknown_diffusion_model(self):
        with pytest.raises(SpecValidationError):
            RunContext(model="percolation")

    def test_bad_jobs(self):
        with pytest.raises(SpecValidationError, match="jobs"):
            RunContext(jobs=0)

    @pytest.mark.parametrize("bad", [0, -0.5, float("nan"), float("inf"), float("-inf"), True, "1"])
    def test_bad_scale_is_named(self, bad):
        with pytest.raises(SpecValidationError, match=rf"GraphSpec\.scale .*got {bad!r}$"):
            GraphSpec(dataset="karate", scale=bad)
        with pytest.raises(SpecValidationError, match=rf"StatsSpec\.scale .*got {bad!r}$"):
            StatsSpec(dataset="karate", scale=bad)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_scale_rejected(self, tmp_path, literal):
        path = tmp_path / "stats.json"
        path.write_text(f'{{"kind": "stats", "dataset": "karate", "scale": {literal}}}')
        with pytest.raises(SpecValidationError, match="StatsSpec.scale"):
            load_spec(path)

    def test_sweep_grid_forms_are_exclusive(self):
        graph = GraphSpec(dataset="karate", probability="uc0.1")
        with pytest.raises(SpecValidationError, match="not both"):
            SweepSpec(graph=graph, max_exponent=4, sample_numbers=(1, 2))
        with pytest.raises(SpecValidationError, match="max_exponent or sample_numbers"):
            SweepSpec(graph=graph)

    def test_sweep_grid(self):
        graph = GraphSpec(dataset="karate", probability="uc0.1")
        assert SweepSpec(graph=graph, max_exponent=3).grid() == (1, 2, 4, 8)
        assert SweepSpec(graph=graph, sample_numbers=(8, 2, 2)).grid() == (2, 8)

    def test_traversal_unknown_approach_is_named(self):
        graph = GraphSpec(dataset="karate", probability="uc0.1")
        with pytest.raises(SpecValidationError, match="'magic'"):
            TraversalSpec(graph=graph, approaches=("oneshot", "magic"))

    @pytest.mark.parametrize(
        "kwargs, field_name",
        [
            ({"dataset": "karate", "on_duplicate": "allow"}, "on_duplicate"),
            ({"dataset": "karate", "directed": False}, "directed"),
            ({"edge_list": "edges.txt", "scale": 0.5}, "scale"),
            ({"edge_list": "edges.txt", "seed": 3}, "seed"),
            ({"generator": "star", "scale": 0.5}, "scale"),
            ({"dataset": "karate", "generator_params": {"n": 3}}, "generator_params"),
        ],
    )
    def test_inapplicable_fields_rejected_not_ignored(self, kwargs, field_name):
        with pytest.raises(SpecValidationError, match=field_name):
            GraphSpec(**kwargs)


class TestSeedValidation:
    """Spec seeds are non-bool ints >= 0, checked when the spec is built."""

    def test_negative_dataset_seed(self):
        with pytest.raises(SpecValidationError, match=r"GraphSpec\.seed .*got -3"):
            GraphSpec(dataset="wiki_vote", seed=-3)

    def test_negative_probability_seed(self):
        with pytest.raises(SpecValidationError, match=r"GraphSpec\.probability_seed .*got -2"):
            GraphSpec(dataset="karate", probability="trivalency", probability_seed=-2)

    def test_float_seed(self):
        with pytest.raises(SpecValidationError, match=r"GraphSpec\.seed .*got 1\.5"):
            GraphSpec(dataset="karate", seed=1.5)

    def test_bool_seed(self):
        with pytest.raises(SpecValidationError, match=r"GraphSpec\.seed .*got True"):
            GraphSpec(dataset="karate", seed=True)

    def test_string_probability_seed(self):
        with pytest.raises(SpecValidationError, match=r"GraphSpec\.probability_seed .*got 'x'"):
            GraphSpec(dataset="karate", probability="trivalency", probability_seed="x")

    def test_negative_context_seed_in_document(self):
        document = {
            "kind": "maximize",
            "graph": {"dataset": "karate", "probability": "uc0.1"},
            "context": {"seed": -1},
        }
        with pytest.raises(SpecValidationError, match=r"RunContext\.seed .*got -1"):
            spec_from_dict(document)

    def test_zero_seeds_accepted(self):
        spec = GraphSpec(dataset="karate", probability="trivalency", probability_seed=0)
        assert spec.seed == 0
        assert RunContext(seed=0).seed == 0


class TestHashability:
    """Frozen specs are usable as dict keys (e.g. spec -> result caches)."""

    @settings(max_examples=40, deadline=None)
    @given(spec=all_experiment_specs)
    def test_specs_hash_and_equal_specs_collide(self, spec):
        clone = type(spec).from_dict(spec.to_dict())
        assert hash(spec) == hash(clone)
        assert len({spec, clone}) == 1

    def test_generator_params_mapping_is_normalized(self):
        a = GraphSpec(generator="star", generator_params={"num_leaves": 5})
        b = GraphSpec(generator="star", generator_params=(("num_leaves", 5),))
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_dict()["generator_params"] == {"num_leaves": 5}


class TestLoadSpec:
    def test_loads_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = StatsSpec(dataset="karate")
        path.write_text(spec.to_json(), encoding="utf-8")
        assert load_spec(path) == spec

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecValidationError, match="broken.json"):
            load_spec(path)
