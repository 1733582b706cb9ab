"""Tests for the Executor implementations and the engine."""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import InvalidParameterError, ReproError
from repro.runtime.engine import executor_scope, run_seeded_tasks, run_tasks
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.seeding import child_generator


def _square(value: int) -> int:
    """Module-level so it pickles into worker processes."""
    return value * value


def _sum_of_uniform_counts(payload: int, root_key: tuple, start: int, stop: int) -> list[int]:
    """Seeded chunk worker: integer draw per index, payload as an offset."""
    return [
        payload + int(child_generator(root_key, index).integers(1_000_000))
        for index in range(start, stop)
    ]


def _pid_worker(_task: int) -> int:
    return os.getpid()


def _crashing_chunk_worker(payload: int, root_key: tuple, start: int, stop: int) -> None:
    """Seeded chunk worker that kills its worker process outright."""
    os._exit(3)


def _crashing_task(_task: int) -> None:
    """Task callable that kills its worker process outright."""
    os._exit(3)


def _raising_worker(value: int) -> int:
    raise ValueError(f"bad task {value}")


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_jobs_is_one(self):
        assert SerialExecutor().jobs == 1

    def test_context_manager(self):
        with SerialExecutor() as resolved:
            assert resolved.map(_square, []) == []


class TestParallelExecutor:
    def test_map_preserves_order(self):
        with ParallelExecutor(2) as pool:
            assert pool.map(_square, list(range(10))) == [v * v for v in range(10)]

    def test_runs_in_worker_processes(self):
        with ParallelExecutor(2) as pool:
            pids = pool.map(_pid_worker, [0, 1, 2, 3])
        assert os.getpid() not in pids

    def test_pool_reused_across_maps(self):
        # Workers start on demand, so the two maps may run on disjoint
        # workers; what must be reused is the pool and every worker it has.
        with ParallelExecutor(2) as pool:
            first = set(pool.map(_pid_worker, range(4)))
            started = pool._pool
            pool.map(_pid_worker, range(4))
            assert pool._pool is started
            workers = started._processes  # pid -> process of every started worker
            assert first <= set(workers)
            assert all(workers[pid].is_alive() for pid in first)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParallelExecutor(0)

    def test_empty_map_spawns_nothing(self):
        pool = ParallelExecutor(2)
        assert pool.map(_square, []) == []
        assert pool._pool is None  # nothing was started
        pool.close()


class TestExecutorScope:
    def test_default_is_serial(self):
        with executor_scope() as resolved:
            assert isinstance(resolved, SerialExecutor)

    def test_jobs_one_is_serial(self):
        with executor_scope(jobs=1) as resolved:
            assert isinstance(resolved, SerialExecutor)

    def test_jobs_many_is_parallel_and_closed(self):
        with executor_scope(jobs=2) as resolved:
            assert isinstance(resolved, ParallelExecutor)
            resolved.map(_square, [1, 2])
            assert resolved._pool is not None
        assert resolved._pool is None  # closed on scope exit


class TestEngine:
    def test_run_tasks_matches_serial(self):
        tasks = list(range(20))
        assert run_tasks(_square, tasks, jobs=2) == [v * v for v in tasks]

    def test_seeded_results_invariant_to_jobs_and_chunking(self):
        def collect(**kwargs):
            chunks = run_seeded_tasks(
                _sum_of_uniform_counts, 23, 99, payload=1000, **kwargs
            )
            return [value for chunk in chunks for value in chunk]

        reference = collect(jobs=1)
        assert collect(jobs=1, num_chunks=7) == reference
        assert collect(jobs=2) == reference
        assert collect(jobs=2, num_chunks=23) == reference

    def test_zero_tasks(self):
        assert run_seeded_tasks(_sum_of_uniform_counts, 0, 1, payload=0, jobs=2) == []


class TestWorkerCrash:
    """A dead worker process must not poison the pool that ran it."""

    @pytest.mark.parametrize("route", ["map", "run_seeded_tasks"])
    def test_crash_raises_repro_error_and_pool_recovers(self, route, opened_pools):
        def collect(**kwargs):
            chunks = run_seeded_tasks(_sum_of_uniform_counts, 8, 0, payload=0, **kwargs)
            return [value for chunk in chunks for value in chunk]

        if route == "map":
            pool = ParallelExecutor(2)
            with pytest.raises(ReproError, match="task 0 of 8") as caught:
                pool.map(_crashing_task, range(8))
        else:
            with pytest.raises(ReproError, match="task 0 of 8") as caught:
                run_seeded_tasks(_crashing_chunk_worker, 8, 0, jobs=2, num_chunks=8)
            (pool,) = opened_pools
        assert isinstance(caught.value.__cause__, BrokenProcessPool)
        assert pool._pool is None  # the broken pool was shut down and dropped
        with pool:
            assert pool.map(_square, [3, 4]) == [9, 16]
        assert collect(jobs=2) == collect(jobs=1)

    def test_worker_exception_propagates_unchanged(self):
        with ParallelExecutor(2) as pool:
            with pytest.raises(ValueError, match="bad task 1"):
                pool.map(_raising_worker, [1, 2])
            assert pool.map(_square, [3]) == [9]
