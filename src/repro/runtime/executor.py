"""The ``Executor`` protocol and its serial / process-pool implementations.

An executor maps a picklable callable over a list of task descriptions and
returns the results *in task order*.  That ordering guarantee, together with
per-task seeding (:mod:`repro.runtime.seeding`), is what makes parallel runs
bit-identical to serial ones: reductions downstream see chunk results in the
same order regardless of which worker finished first.
"""

from __future__ import annotations

import abc
import concurrent.futures
from typing import Any, Callable, Sequence

from .._validation import require_positive_int
from ..exceptions import ReproError


def _lost(future: concurrent.futures.Future) -> bool:
    """Whether a finished pool future holds no result (cancelled or broken)."""
    return future.cancelled() or isinstance(future.exception(), concurrent.futures.BrokenExecutor)


class Executor(abc.ABC):
    """Minimal executor protocol used by the runtime engine.

    Implementations must be context managers and must return results in the
    order of the submitted tasks.
    """

    @property
    @abc.abstractmethod
    def jobs(self) -> int:
        """Number of worker slots (1 for serial execution)."""

    @abc.abstractmethod
    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every task and return results in task order."""

    def close(self) -> None:
        """Release worker resources (no-op for in-process executors)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Zero-dependency in-process executor: plain sequential evaluation.

    This is the default execution mode; it involves no pickling, no worker
    processes, and no scheduling, so it is also the reference implementation
    the parallel path must match bit-for-bit.
    """

    @property
    def jobs(self) -> int:
        return 1

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        return [fn(task) for task in tasks]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Process-pool executor with lazy pool creation.

    The underlying :class:`concurrent.futures.ProcessPoolExecutor` is created
    on first use and reused across ``map`` calls of this instance.  The
    library opens one per call that needs it, through
    :func:`repro.runtime.engine.executor_scope`, and closes it before the
    call returns.  Tasks and the mapped callable must be picklable
    (module-level functions and plain-data payloads).

    Use as a context manager, or call :meth:`close` explicitly, to reap the
    worker processes.
    """

    def __init__(self, jobs: int) -> None:
        self._jobs = require_positive_int(jobs, "jobs")
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    @property
    def jobs(self) -> int:
        return self._jobs

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self._jobs)
        return self._pool

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every task in the pool; results in task order.

        One future per task: chunks are already coarse, and slow chunks
        overlap fast ones.  An exception raised by ``fn`` propagates as is.
        A worker process that dies breaks the whole pool, so the pool is shut
        down and dropped (the next call starts a fresh one) and a
        :class:`~repro.exceptions.ReproError` names the first task whose
        result was lost.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        pool = self._ensure_pool()
        futures: list[concurrent.futures.Future] = []
        # BrokenExecutor is BrokenProcessPool's base; naming the latter would
        # import multiprocessing even on serial runs.
        try:
            for task in tasks:
                futures.append(pool.submit(fn, task))
            return [future.result() for future in futures]
        except concurrent.futures.BrokenExecutor as error:
            pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            lost = next(
                (index for index, future in enumerate(futures) if _lost(future)),
                len(futures),
            )
            raise ReproError(
                f"a worker process died; the result of task {lost} of "
                f"{len(tasks)} was lost"
            ) from error

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelExecutor(jobs={self._jobs})"
