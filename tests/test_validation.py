"""Tests for the shared validation helpers and exception hierarchy."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro._validation import (
    normalize_seed_set,
    require_choice,
    require_fraction,
    require_non_negative_int,
    require_positive_int,
    require_probability,
    require_vertex,
)
from repro.algorithms.exact import ExactEstimator
from repro.algorithms.oneshot import OneshotEstimator
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.diffusion.cascade import simulate_cascade, simulate_spread
from repro.diffusion.exact import exact_spread
from repro.diffusion.linear_threshold import exact_lt_spread, simulate_lt_cascade
from repro.diffusion.models import INDEPENDENT_CASCADE, LINEAR_THRESHOLD
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import RRSet, RRSetCollection, sample_rr_set, sample_rr_sets
from repro.diffusion.snapshot_lanes import SnapshotLanes
from repro.diffusion.snapshots import sample_snapshot
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.estimation.oracle import RRPoolOracle
from repro.exceptions import (
    EstimatorStateError,
    ExperimentConfigurationError,
    GraphConstructionError,
    InvalidParameterError,
    InvalidProbabilityError,
    InvalidSeedSetError,
    ReproError,
    UnknownDatasetError,
    UnknownProbabilityModelError,
)
from repro.graphs.builder import GraphBuilder


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int(5, "x") == 5

    def test_rejects_zero_and_negative(self):
        with pytest.raises(InvalidParameterError):
            require_positive_int(0, "x")
        with pytest.raises(InvalidParameterError):
            require_positive_int(-2, "x")

    def test_rejects_bool_and_float(self):
        with pytest.raises(InvalidParameterError):
            require_positive_int(True, "x")
        with pytest.raises(InvalidParameterError):
            require_positive_int(2.0, "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(InvalidParameterError, match="num_samples"):
            require_positive_int(-1, "num_samples")


class TestRequireNonNegativeInt:
    def test_accepts_zero(self):
        assert require_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            require_non_negative_int(-1, "x")


#: Values ``float()`` would accept but no probability or fraction should be.
NON_REAL_VALUES = [
    pytest.param(True, id="bool"),
    pytest.param(np.bool_(True), id="numpy-bool"),
    pytest.param("0.5", id="str"),
]


class TestRequireProbability:
    def test_accepts_half_open_interval(self):
        assert require_probability(1.0, "p") == 1.0
        assert require_probability(0.001, "p") == 0.001

    def test_rejects_zero_by_default(self):
        with pytest.raises(InvalidParameterError):
            require_probability(0.0, "p")

    def test_allow_zero(self):
        assert require_probability(0.0, "p", allow_zero=True) == 0.0

    def test_rejects_above_one(self):
        with pytest.raises(InvalidParameterError):
            require_probability(1.01, "p")

    def test_rejects_non_numeric(self):
        with pytest.raises(InvalidParameterError):
            require_probability("high", "p")

    @pytest.mark.parametrize("value", NON_REAL_VALUES)
    def test_rejects_bools_and_strings_uncast(self, value):
        with pytest.raises(InvalidParameterError, match=re.escape(repr(value))):
            require_probability(value, "p")
        with pytest.raises(InvalidParameterError, match=re.escape(repr(value))):
            require_probability(value, "p", allow_zero=True)

    def test_accepts_numpy_reals(self):
        assert require_probability(np.float32(0.5), "p") == 0.5
        assert require_probability(np.int64(1), "p") == 1.0

    def test_builder_rejects_string_probability(self):
        with pytest.raises(InvalidParameterError, match="'0.5'"):
            GraphBuilder(2).add_edge(0, 1, "0.5")


class TestRequireFraction:
    def test_accepts_interior_points(self):
        assert require_fraction(0.5, "eps") == 0.5

    def test_rejects_endpoints(self):
        with pytest.raises(InvalidParameterError):
            require_fraction(0.0, "eps")
        with pytest.raises(InvalidParameterError):
            require_fraction(1.0, "eps")

    @pytest.mark.parametrize("value", NON_REAL_VALUES)
    def test_rejects_bools_and_strings_uncast(self, value):
        with pytest.raises(InvalidParameterError, match=re.escape(repr(value))):
            require_fraction(value, "eps")


class TestRequireVertexAndSeedSet:
    def test_vertex_in_range(self):
        assert require_vertex(3, 5) == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(InvalidSeedSetError):
            require_vertex(5, 5)
        with pytest.raises(InvalidSeedSetError):
            require_vertex(-1, 5)

    def test_vertex_must_be_int(self):
        with pytest.raises(InvalidSeedSetError):
            require_vertex(True, 5)

    def test_normalize_sorts_and_validates(self):
        assert normalize_seed_set([3, 1, 2], 5) == (1, 2, 3)

    def test_normalize_rejects_duplicates(self):
        with pytest.raises(InvalidSeedSetError):
            normalize_seed_set([1, 1], 5)

    def test_normalize_empty(self):
        assert normalize_seed_set([], 5) == ()


#: Values that are not vertex ids, even where ``int()`` would accept them.
NON_VERTEX_IDS = [
    pytest.param(1.7, id="float"),
    pytest.param(2.0, id="integral-float"),
    pytest.param(True, id="bool"),
    pytest.param(np.bool_(True), id="numpy-bool"),
    pytest.param("3", id="str"),
    pytest.param(np.float64(2.9), id="numpy-float"),
    pytest.param(None, id="none"),
]

#: Integer vertex ids of every accepted type (vertex 2 of a 5-vertex graph).
INTEGER_VERTEX_IDS = [
    pytest.param(2, id="int"),
    pytest.param(np.int64(2), id="int64"),
    pytest.param(np.int32(2), id="int32"),
    pytest.param(np.uint8(2), id="uint8"),
]


class TestSeedVertexTypes:
    @pytest.mark.parametrize("value", NON_VERTEX_IDS)
    def test_normalize_rejects_and_names_the_value(self, value):
        with pytest.raises(InvalidSeedSetError, match=re.escape(repr(value))):
            normalize_seed_set([0, value], 5)

    @pytest.mark.parametrize("value", NON_VERTEX_IDS)
    def test_require_vertex_rejects(self, value):
        with pytest.raises(InvalidSeedSetError, match=re.escape(repr(value))):
            require_vertex(value, 5)

    @pytest.mark.parametrize("value", INTEGER_VERTEX_IDS)
    def test_integers_of_any_type_are_accepted(self, value):
        assert normalize_seed_set([value, 0], 5) == (0, 2)
        assert all(type(v) is int for v in normalize_seed_set([value], 5))
        assert type(require_vertex(value, 5)) is int

    @pytest.mark.parametrize("value", INTEGER_VERTEX_IDS)
    def test_numpy_integers_are_range_checked(self, value):
        with pytest.raises(InvalidSeedSetError, match="out of range"):
            normalize_seed_set([value], 2)

    def test_integer_duplicates_across_types(self):
        with pytest.raises(InvalidSeedSetError, match="duplicate"):
            normalize_seed_set([2, np.int64(2)], 5)


def _built(estimator, graph):
    estimator.build(graph, RandomSource(3))
    return estimator


#: Every public query that takes a seed set or a candidate vertex, as
#: ``(graph, value) -> result``; each must validate rather than cast.
SEED_SURFACES = {
    "snapshot_lanes.reachable_count": lambda g, v: SnapshotLanes(
        [sample_snapshot(g, RandomSource(1))]
    ).reachable_count([v]),
    "rr_collection.fraction_covered": lambda g, v: INDEPENDENT_CASCADE.sample_rr_store(
        g, 20, RandomSource(1)
    ).fraction_covered([v]),
    "lt.rr_collection.fraction_covered": lambda g, v: LINEAR_THRESHOLD.sample_rr_store(
        g, 20, RandomSource(1)
    ).fraction_covered([v]),
    "simulate_cascade": lambda g, v: simulate_cascade(g, [v], RandomSource(1)),
    "simulate_cascades": lambda g, v: INDEPENDENT_CASCADE.simulate_cascades(
        g, [v], 4, RandomSource(1)
    ),
    "simulate_spread": lambda g, v: simulate_spread(g, [v], 4, RandomSource(1)),
    "bitparallel.simulate_spread": lambda g, v: INDEPENDENT_CASCADE.simulate_spread(
        g, [v], 4, RandomSource(1), batch_mode="bitparallel"
    ),
    "monte_carlo_spread": lambda g, v: monte_carlo_spread(g, [v], 4, seed=1),
    "exact_spread": lambda g, v: exact_spread(g, [v]),
    "simulate_lt_cascade": lambda g, v: simulate_lt_cascade(g, [v], RandomSource(1)),
    "lt.simulate_spread": lambda g, v: LINEAR_THRESHOLD.simulate_spread(
        g, [v], 4, RandomSource(1)
    ),
    "lt.bitparallel.simulate_spread": lambda g, v: LINEAR_THRESHOLD.simulate_spread(
        g, [v], 4, RandomSource(1), batch_mode="bitparallel"
    ),
    "exact_lt_spread": lambda g, v: exact_lt_spread(g, [v]),
    "oracle.spread": lambda g, v: RRPoolOracle(g, pool_size=50, seed=1).spread([v]),
    "snapshot.naive.estimate": lambda g, v: _built(SnapshotEstimator(3), g).estimate((), v),
    "snapshot.reduce.estimate": lambda g, v: _built(
        SnapshotEstimator(3, update_strategy="reduce"), g
    ).estimate((), v),
    "snapshot.spread": lambda g, v: _built(SnapshotEstimator(3), g).spread([v]),
    "snapshot.update": lambda g, v: _built(SnapshotEstimator(3), g).update(v),
    "snapshot.reduce.update": lambda g, v: _built(
        SnapshotEstimator(3, update_strategy="reduce"), g
    ).update(v),
    "snapshot.reduce.spread": lambda g, v: _built(
        SnapshotEstimator(3, update_strategy="reduce"), g
    ).spread([v]),
    "lt.snapshot.estimate": lambda g, v: _built(SnapshotEstimator(3, model="lt"), g).estimate(
        (), v
    ),
    "oneshot.estimate": lambda g, v: _built(OneshotEstimator(2), g).estimate((), v),
    "oneshot.update": lambda g, v: _built(OneshotEstimator(2), g).update(v),
    "ris.estimate": lambda g, v: _built(RISEstimator(20), g).estimate((), v),
    "ris.spread": lambda g, v: _built(RISEstimator(20), g).spread([v]),
    "ris.update": lambda g, v: _built(RISEstimator(20), g).update(v),
    "exact.estimate": lambda g, v: _built(ExactEstimator(), g).estimate((), v),
    "exact.update": lambda g, v: _built(ExactEstimator(), g).update(v),
}


class TestSeedSurfaces:
    @pytest.mark.parametrize("surface", sorted(SEED_SURFACES))
    @pytest.mark.parametrize("value", NON_VERTEX_IDS)
    def test_rejects_non_integer_vertex(self, surface, value, two_hubs_graph):
        with pytest.raises(InvalidSeedSetError, match=re.escape(repr(value))):
            SEED_SURFACES[surface](two_hubs_graph, value)

    @pytest.mark.parametrize("surface", sorted(SEED_SURFACES))
    def test_accepts_numpy_integer_vertex(self, surface, two_hubs_graph):
        expected = SEED_SURFACES[surface](two_hubs_graph, 4)
        assert SEED_SURFACES[surface](two_hubs_graph, np.int64(4)) == expected


class TestRRSetCollectionInputs:
    """The store rejects what numpy would silently wrap or cast."""

    @pytest.mark.parametrize("num_vertices", [3.0, True, "3", None, np.float64(3.0)])
    def test_rejects_non_int_num_vertices(self, num_vertices):
        with pytest.raises(InvalidParameterError, match=re.escape(repr(num_vertices))):
            RRSetCollection([RRSet(target=0, vertices=frozenset({0}), weight=0)], num_vertices)

    def test_rejects_negative_num_vertices(self):
        with pytest.raises(InvalidParameterError, match="-1"):
            RRSetCollection([], -1)

    @pytest.mark.parametrize("member", [-1, 3, 7])
    def test_rejects_member_outside_range(self, member):
        rr_set = RRSet(target=0, vertices=frozenset({0, member}), weight=1)
        with pytest.raises(InvalidParameterError, match=f"member {member} "):
            RRSetCollection([rr_set], 3)
        arrays = tuple(np.array(column) for column in ([0], [2], [0, member], [1]))
        with pytest.raises(InvalidParameterError, match=f"member {member} "):
            RRSetCollection.from_arrays(arrays, 3)

    def test_accepts_every_vertex_of_the_range(self):
        rr_set = RRSet(target=2, vertices=frozenset({0, 1, 2}), weight=2)
        collection = RRSetCollection([rr_set], 3)
        assert [collection.coverage(v) for v in range(3)] == [1, 1, 1]


def _mt19937():
    return np.random.Generator(np.random.MT19937(0))


#: Scalar IC entry points handed a generator over a bit generator whose raw
#: words are not PCG64's, as ``graph -> result``.
NON_PCG64_SURFACES = {
    "simulate_cascade": lambda g: simulate_cascade(g, [0], _mt19937()),
    "simulate_spread": lambda g: simulate_spread(g, [0], 4, _mt19937()),
    "sample_rr_set": lambda g: sample_rr_set(g, _mt19937()),
    "sample_rr_set.target": lambda g: sample_rr_set(g, _mt19937(), target=0),
    "sample_rr_sets": lambda g: sample_rr_sets(g, 4, _mt19937()),
}


class TestNonPCG64Generators:
    """The scalar kernels decode PCG64 words, so another bit generator is refused."""

    @pytest.mark.parametrize("surface", sorted(NON_PCG64_SURFACES))
    def test_rejected_naming_the_bit_generator(self, surface, two_hubs_graph):
        with pytest.raises(InvalidParameterError, match="MT19937"):
            NON_PCG64_SURFACES[surface](two_hubs_graph)

    def test_monte_carlo_spread_takes_no_generator(self, two_hubs_graph):
        # Its seed is an int or RandomSource (always PCG64); a generator is
        # refused before any draw.
        with pytest.raises(InvalidParameterError, match="Generator"):
            monte_carlo_spread(two_hubs_graph, [0], 4, seed=_mt19937())


class TestRequireChoice:
    def test_accepts_member(self):
        assert require_choice("a", ("a", "b"), "mode") == "a"

    def test_rejects_non_member(self):
        with pytest.raises(InvalidParameterError):
            require_choice("c", ("a", "b"), "mode")


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            GraphConstructionError,
            InvalidProbabilityError,
            UnknownDatasetError,
            UnknownProbabilityModelError,
            InvalidSeedSetError,
            InvalidParameterError,
            EstimatorStateError,
            ExperimentConfigurationError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_lookup_errors_are_key_errors(self):
        assert issubclass(UnknownDatasetError, KeyError)
        assert issubclass(UnknownProbabilityModelError, KeyError)

    def test_value_errors(self):
        assert issubclass(InvalidParameterError, ValueError)
        assert issubclass(InvalidSeedSetError, ValueError)
