"""Determinism regression tests: ``jobs=1`` and ``jobs=4`` are bit-identical.

This is the runtime's central contract (see ``repro.runtime``): for every
parallel-enabled entry point, the result is a pure function of the root seed
and the task count — worker count and chunk layout must not leak into any
output.  Each test runs the same workload serially and with a 4-worker
process pool and asserts full equality (seed sets, RR collections, snapshot
arrays, spread estimates, costs), not approximate closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.framework import greedy_maximize
from repro.algorithms.ris import RISEstimator
from repro.algorithms.snapshot import SnapshotEstimator
from repro.api.specs import StatsSpec
from repro.context import RunContext
from repro.diffusion.costs import SampleSize, TraversalCost
from repro.diffusion.random_source import RandomSource
from repro.diffusion.reverse import sample_rr_sets
from repro.diffusion.snapshots import sample_snapshots
from repro.estimation.monte_carlo import monte_carlo_spread
from repro.estimation.oracle import RRPoolOracle
from repro.experiments.factories import estimator_factory
from repro.experiments.sweeps import sweep_sample_numbers
from repro.experiments.traversal import traversal_cost_table
from repro.experiments.trials import run_trials

JOBS = 4


class TestSamplingDeterminism:
    def test_rr_sets_bit_identical(self, karate_uc01):
        serial = sample_rr_sets(karate_uc01, 60, RandomSource(17), jobs=1)
        parallel = sample_rr_sets(karate_uc01, 60, RandomSource(17), jobs=JOBS)
        assert [(r.target, r.vertices, r.weight) for r in serial] == [
            (r.target, r.vertices, r.weight) for r in parallel
        ]

    def test_rr_set_cost_accounting_identical(self, karate_uc01):
        cost_serial, size_serial = TraversalCost(), SampleSize()
        cost_parallel, size_parallel = TraversalCost(), SampleSize()
        sample_rr_sets(
            karate_uc01, 60, RandomSource(17), jobs=1,
            cost=cost_serial, sample_size=size_serial,
        )
        sample_rr_sets(
            karate_uc01, 60, RandomSource(17), jobs=JOBS,
            cost=cost_parallel, sample_size=size_parallel,
        )
        assert (cost_serial.vertices, cost_serial.edges) == (
            cost_parallel.vertices, cost_parallel.edges,
        )
        assert (size_serial.vertices, size_serial.edges) == (
            size_parallel.vertices, size_parallel.edges,
        )

    def test_rr_sets_invariant_to_chunking(self, karate_uc01):
        from functools import partial

        from repro.diffusion.models import INDEPENDENT_CASCADE, _seeded_chunk_worker
        from repro.diffusion.reverse import RRSetCollection, concat_rr_arrays
        from repro.runtime.engine import run_seeded_tasks

        kernel = partial(INDEPENDENT_CASCADE._rr_kernel, karate_uc01)

        def flatten(num_chunks):
            chunks = run_seeded_tasks(
                _seeded_chunk_worker, 30, 5, jobs=1,
                payload=(kernel, 30, False), num_chunks=num_chunks,
            )
            arrays = concat_rr_arrays([chunk for chunk, _, _ in chunks])
            return [r.vertices for r in RRSetCollection.from_arrays(arrays, 34)]

        assert flatten(1) == flatten(7) == flatten(30)

    def test_snapshots_bit_identical(self, karate_uc01):
        serial = sample_snapshots(karate_uc01, 25, RandomSource(3), jobs=1)
        parallel = sample_snapshots(karate_uc01, 25, RandomSource(3), jobs=JOBS)
        assert len(serial) == len(parallel) == 25
        for left, right in zip(serial, parallel):
            assert np.array_equal(left.indptr, right.indptr)
            assert np.array_equal(left.targets, right.targets)

    def test_monte_carlo_estimate_bit_identical(self, karate_uc01):
        serial = monte_carlo_spread(karate_uc01, (0, 33), 80, seed=9, jobs=1)
        parallel = monte_carlo_spread(karate_uc01, (0, 33), 80, seed=9, jobs=JOBS)
        assert serial == parallel  # frozen dataclass: exact float equality


class TestOracleAndEstimatorDeterminism:
    def test_oracle_pool_bit_identical(self, karate_uc01):
        serial = RRPoolOracle(karate_uc01, pool_size=800, seed=4, jobs=1)
        parallel = RRPoolOracle(karate_uc01, pool_size=800, seed=4, jobs=JOBS)
        assert np.array_equal(
            serial.single_vertex_spreads(), parallel.single_vertex_spreads()
        )
        assert serial.spread((0, 33)) == parallel.spread((0, 33))
        assert serial.average_rr_size == parallel.average_rr_size

    def test_ris_estimator_greedy_bit_identical(self, karate_uc01):
        serial = greedy_maximize(karate_uc01, 3, RISEstimator(256, jobs=1), seed=21)
        parallel = greedy_maximize(karate_uc01, 3, RISEstimator(256, jobs=JOBS), seed=21)
        assert serial == parallel

    def test_snapshot_estimator_greedy_bit_identical(self, karate_uc01):
        serial = greedy_maximize(karate_uc01, 2, SnapshotEstimator(16, jobs=1), seed=21)
        parallel = greedy_maximize(
            karate_uc01, 2, SnapshotEstimator(16, jobs=JOBS), seed=21
        )
        assert serial == parallel


class TestExperimentDeterminism:
    @pytest.mark.parametrize("approach", ["ris", "snapshot"])
    def test_run_trials_bit_identical(self, karate_uc01, karate_oracle, approach):
        serial = run_trials(
            karate_uc01, 2, estimator_factory(approach), 64, 8,
            oracle=karate_oracle, experiment_seed=13, jobs=1,
        )
        parallel = run_trials(
            karate_uc01, 2, estimator_factory(approach), 64, 8,
            oracle=karate_oracle, experiment_seed=13, jobs=JOBS,
        )
        assert serial == parallel

    def test_run_trials_parallel_matches_legacy_serial(self, karate_uc01, karate_oracle):
        # Trials were already seeded per trial before the runtime existed, so
        # even the legacy (jobs=None) path must equal the parallel one.
        legacy = run_trials(
            karate_uc01, 2, estimator_factory("ris"), 64, 8,
            oracle=karate_oracle, experiment_seed=13,
        )
        parallel = run_trials(
            karate_uc01, 2, estimator_factory("ris"), 64, 8,
            oracle=karate_oracle, experiment_seed=13, jobs=JOBS,
        )
        assert legacy == parallel

    def test_sweep_bit_identical(self, karate_uc01, karate_oracle):
        serial = sweep_sample_numbers(
            karate_uc01, 1, estimator_factory("ris"), (4, 16, 64), 6,
            oracle=karate_oracle, experiment_seed=5, jobs=1,
        )
        parallel = sweep_sample_numbers(
            karate_uc01, 1, estimator_factory("ris"), (4, 16, 64), 6,
            oracle=karate_oracle, experiment_seed=5, jobs=JOBS,
        )
        assert serial == parallel
        assert serial.entropies() == parallel.entropies()
        assert serial.mean_influences() == parallel.mean_influences()

    def test_traversal_costs_bit_identical(self, karate_uc01):
        factories = {"ris": estimator_factory("ris")}
        serial = traversal_cost_table(karate_uc01, factories, num_repetitions=6, jobs=1)
        parallel = traversal_cost_table(karate_uc01, factories, num_repetitions=6, jobs=JOBS)
        assert serial == parallel

    def test_stats_rows_bit_identical(self):
        # The stats runner's worker crosses a real process boundary here, so
        # an unpicklable worker at that executor call site fails this test.
        serial = repro.run(StatsSpec(dataset="karate"))
        parallel = repro.run(StatsSpec(dataset="karate", context=RunContext(jobs=2)))
        assert parallel.rows == serial.rows
