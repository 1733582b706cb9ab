"""Tests for the pluggable diffusion-model protocol and registry."""

from __future__ import annotations

import numpy as np
import pytest

from reference_kernels import lt_reachable_set_reference, reachable_set_reference
from repro.diffusion.cascade import CascadeResult, simulate_cascade
from repro.diffusion.exact import exact_spread
from repro.diffusion.linear_threshold import (
    LTRRSet,
    sample_lt_rr_set,
    sample_lt_snapshot,
    simulate_lt_cascade,
)
from repro.diffusion.models import (
    INDEPENDENT_CASCADE,
    LINEAR_THRESHOLD,
    IndependentCascade,
    available_models,
    get_model,
    register_model,
    resolve_model,
)
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import RRSet, RRSetCollection, sample_rr_set
from repro.diffusion.snapshots import Snapshot, sample_snapshot
from repro.exceptions import InvalidParameterError
from repro.graphs.builder import GraphBuilder
from repro.graphs.datasets import load_dataset
from repro.graphs.probability import in_degree_weighted_cascade


@pytest.fixture(scope="module")
def karate_lt():
    """Karate under iwc: incoming weights sum to exactly one (valid LT)."""
    return in_degree_weighted_cascade(load_dataset("karate"))


class TestRegistry:
    def test_builtin_models_registered(self):
        assert "ic" in available_models()
        assert "lt" in available_models()

    def test_get_model_returns_singletons(self):
        assert get_model("ic") is INDEPENDENT_CASCADE
        assert get_model("lt") is LINEAR_THRESHOLD

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown diffusion model"):
            get_model("percolation")

    def test_resolve_none_is_ic(self):
        assert resolve_model(None) is INDEPENDENT_CASCADE

    def test_resolve_name_and_instance(self):
        assert resolve_model("lt") is LINEAR_THRESHOLD
        assert resolve_model(LINEAR_THRESHOLD) is LINEAR_THRESHOLD

    def test_resolve_rejects_other_types(self):
        with pytest.raises(InvalidParameterError):
            resolve_model(42)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError, match="cannot be replaced"):
            register_model(IndependentCascade())

    def test_builtin_names_cannot_be_overwritten(self):
        # resolve_model(None) and the IC shorthands alias the singletons, so
        # replacing "ic"/"lt" in the registry would desynchronise them.
        with pytest.raises(InvalidParameterError, match="cannot be replaced"):
            register_model(IndependentCascade(), overwrite=True)

    def test_register_requires_model_instance(self):
        with pytest.raises(InvalidParameterError):
            register_model("ic")

    def test_third_model_plugs_in(self):
        class AlwaysIC(IndependentCascade):
            name = "test-third-model"

        try:
            registered = register_model(AlwaysIC())
            assert "test-third-model" in available_models()
            assert get_model("test-third-model") is registered
        finally:
            from repro.diffusion import models as models_module

            models_module._REGISTRY.pop("test-third-model", None)


class TestIndependentCascadeDelegation:
    """The IC model is a pure wrapper: same streams, same results."""

    def test_cascade_matches_primitive(self, karate_uc01):
        direct = simulate_cascade(karate_uc01, (0,), RandomSource(7).generator)
        via_model = INDEPENDENT_CASCADE.simulate_cascade(
            karate_uc01, (0,), RandomSource(7).generator
        )
        assert direct == via_model

    def test_rr_set_matches_primitive(self, karate_uc01):
        direct = sample_rr_set(karate_uc01, RandomSource(11).generator)
        via_model = INDEPENDENT_CASCADE.sample_rr_set(
            karate_uc01, RandomSource(11).generator
        )
        assert direct == via_model

    def test_snapshot_matches_primitive(self, karate_uc01):
        direct = sample_snapshot(karate_uc01, RandomSource(13).generator)
        via_model = INDEPENDENT_CASCADE.sample_snapshot(
            karate_uc01, RandomSource(13).generator
        )
        assert np.array_equal(direct.indptr, via_model.indptr)
        assert np.array_equal(direct.targets, via_model.targets)

    def test_exact_spread_matches_primitive(self, probabilistic_diamond):
        assert INDEPENDENT_CASCADE.exact_spread(
            probabilistic_diamond, (0,)
        ) == exact_spread(probabilistic_diamond, (0,))

    def test_plural_samplers_match_serial_primitives(self, karate_uc01):
        rng_a, rng_b = RandomSource(5), RandomSource(5)
        direct = [sample_rr_set(karate_uc01, rng_a.generator) for _ in range(10)]
        via_model = INDEPENDENT_CASCADE.sample_rr_sets(karate_uc01, 10, rng_b.generator)
        assert direct == via_model


class TestLinearThresholdModel:
    def test_validate_rejects_overweight(self):
        builder = GraphBuilder(3, default_probability=0.8)
        builder.add_edge(0, 2)
        builder.add_edge(1, 2)
        graph = builder.build()
        with pytest.raises(InvalidParameterError):
            LINEAR_THRESHOLD.validate(graph)
        # IC accepts the same instance.
        INDEPENDENT_CASCADE.validate(graph)

    def test_snapshot_is_shared_csr_type(self, karate_lt):
        snapshot = LINEAR_THRESHOLD.sample_snapshot(karate_lt, RandomSource(3))
        assert isinstance(snapshot, Snapshot)
        # At most one in-edge per vertex: each vertex appears as a target
        # at most once across the whole snapshot.
        targets = snapshot.targets.tolist()
        assert len(targets) == len(set(targets))

    def test_snapshot_conversion_preserves_reachability(self, karate_lt):
        for seed in range(5):
            lt_snapshot = sample_lt_snapshot(karate_lt, RandomSource(seed))
            csr = lt_snapshot.to_snapshot()
            for start in (0, 5, 33):
                assert reachable_set_reference(csr, (start,)) == lt_reachable_set_reference(
                    lt_snapshot, (start,)
                )

    def test_snapshot_sample_size_counts_live_edges(self, karate_lt):
        from repro.diffusion.costs import SampleSize

        size = SampleSize()
        snapshot = LINEAR_THRESHOLD.sample_snapshot(
            karate_lt, RandomSource(4), sample_size=size
        )
        assert size.edges == snapshot.num_live_edges

    def test_rr_sets_feed_shared_collection(self, karate_lt):
        rr_sets = LINEAR_THRESHOLD.sample_rr_sets(karate_lt, 50, RandomSource(8))
        collection = RRSetCollection(rr_sets, karate_lt.num_vertices)
        assert collection.num_total == 50
        assert collection.total_size == sum(r.size for r in rr_sets)

    def test_cascade_returns_shared_result_type(self, karate_lt):
        result = LINEAR_THRESHOLD.simulate_cascade(karate_lt, (0,), RandomSource(2))
        assert isinstance(result, CascadeResult)
        assert 0 in result


class TestUnifiedResultTypes:
    def test_lt_cascade_is_cascade_result(self, star_graph, rng):
        assert isinstance(simulate_lt_cascade(star_graph, (0,), rng), CascadeResult)

    def test_lt_rr_set_is_rr_set(self, star_graph, rng):
        assert LTRRSet is RRSet
        assert isinstance(sample_lt_rr_set(star_graph, rng), RRSet)

    def test_contains_is_cached(self):
        result = CascadeResult((3, 1, 4), 3)
        assert 3 in result
        assert 2 not in result
        # The frozenset is materialised once and reused.
        assert result._activated_set is result._activated_set
        assert result == CascadeResult((3, 1, 4), 3)
