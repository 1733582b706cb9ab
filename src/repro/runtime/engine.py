"""The chunked-dispatch engine tying seeding, chunking, and executors together.

:func:`run_seeded_tasks` is the one entry point the hot paths use: it splits
``count`` seeded tasks into deterministic chunks, ships each chunk (with the
root seed key and its index span) to the executor for ``jobs``, and returns
the per-chunk results in chunk order.  Workers derive each task's stream
from ``(root_key, task_index)`` alone — the PCG64 state of
:func:`repro.runtime.seeding.child_generator`, which
:func:`~repro.runtime.seeding.unit_states` derives for a whole span — so
the outcome is independent of ``jobs`` and of the chunk layout.  ``jobs`` is
the only knob: every executor is opened and closed inside the call
(:func:`executor_scope`).

What a chunk costs is its kernel, not its dispatch.  The graph crosses the
process boundary once per chunk inside ``partial(kernel, graph)``: on
``trials_wiki_vote_jobs2`` (wiki_vote iwc, 16 chunks) pickling all of them
takes about 0.013 s, and a worker unpickles a chunk's graph in under
0.2 ms.  Because a task's draws never depend on another task's, a kernel
may also advance many tasks at once; the IC RR kernel does, one BFS level
over a whole batch of a chunk's units
(:func:`repro.diffusion.reverse._split_stream_rr_sets`).
"""

from __future__ import annotations

import contextlib
import pickle
import time
from typing import Any, Callable, Iterator, Sequence

from .._validation import require_positive_int
from .chunking import chunk_spans, default_num_chunks
from .executor import Executor, ParallelExecutor, SerialExecutor
from .seeding import SeedKey, seed_key

#: Signature of a seeded chunk worker: ``(payload, root_key, start, stop)``.
SeededWorker = Callable[[Any, SeedKey, int, int], Any]


@contextlib.contextmanager
def executor_scope(jobs: int | None = None) -> Iterator[Executor]:
    """Yield an executor for ``jobs`` and close it when the scope exits.

    ``jobs`` of ``None`` or ``1`` yields a :class:`SerialExecutor`;
    ``jobs > 1`` yields a :class:`ParallelExecutor` whose pool is shut down on
    exit, so no worker process outlives the call that opened it.
    """
    if jobs is None or require_positive_int(jobs, "jobs") == 1:
        yield SerialExecutor()
        return
    pool = ParallelExecutor(jobs)
    try:
        yield pool
    finally:
        pool.close()


def _invoke_seeded_chunk(task: tuple) -> Any:
    """Unpack one chunk task; module-level so it pickles for process pools."""
    worker, payload, key, start, stop = task
    return worker(payload, key, start, stop)


def _timed_invoke(task: tuple) -> tuple[Any, float]:
    """Apply ``fn`` to its task and measure the worker-side kernel seconds.

    Module-level so it pickles; the measured time excludes pickling and
    dispatch, which the parent accounts separately.  Returning the elapsed
    time alongside the result is the worker-side half of the deterministic
    metric merge: the parent sums the times in task order.
    """
    fn, inner = task
    start = time.perf_counter()
    result = fn(inner)
    return result, time.perf_counter() - start


def instrumented_map(
    executor: Executor,
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    telemetry: Any = None,
    phase: str = "runtime",
) -> list[Any]:
    """An ordered ``executor.map`` that records where the wall-time goes.

    With no (or disabled) telemetry this is exactly ``executor.map(fn,
    tasks)`` — the byte-identical fast path.  With telemetry enabled, each
    chunk is wrapped in :func:`_timed_invoke` and the call records, under
    the environmental ``runtime.*``-style namespace ``{phase}.*``:

    * ``{phase}.chunks`` — number of chunk tasks dispatched;
    * ``{phase}.pickle_bytes`` — total serialized size of the (fn, task)
      pairs crossing the process boundary, measured inside the
      ``{phase}.serialize`` span (only when ``executor.jobs > 1``; the
      serial executor never pickles);
    * ``{phase}.dispatch`` span — the blocking map over the executor;
    * ``{phase}.kernel_seconds`` — worker-side per-chunk execution time,
      summed in chunk order inside the ``{phase}.merge`` span.

    Dispatch seconds minus kernel seconds is the scheduling + IPC overhead —
    the number that decides the ROADMAP's pickling-dominates hypothesis.
    """
    tasks = list(tasks)
    if telemetry is None or not telemetry.enabled:
        return executor.map(fn, tasks)
    telemetry.check_jobs(executor.jobs)
    telemetry.incr(f"{phase}.chunks", len(tasks))
    wrapped = [(fn, task) for task in tasks]
    if executor.jobs > 1:
        with telemetry.span(f"{phase}.serialize"):
            telemetry.incr(
                f"{phase}.pickle_bytes",
                sum(len(pickle.dumps(pair)) for pair in wrapped),
            )
    with telemetry.span(f"{phase}.dispatch"):
        timed = executor.map(_timed_invoke, wrapped)
    with telemetry.span(f"{phase}.merge"):
        results = []
        for result, seconds in timed:
            telemetry.incr(f"{phase}.kernel_seconds", seconds)
            results.append(result)
    return results


def run_seeded_tasks(
    worker: SeededWorker,
    count: int,
    root: Any,
    *,
    jobs: int | None = None,
    payload: Any = None,
    num_chunks: int | None = None,
    telemetry: Any = None,
) -> list[Any]:
    """Run ``count`` seeded tasks through ``worker`` in deterministic chunks.

    Parameters
    ----------
    worker:
        A picklable module-level function ``worker(payload, root_key, start,
        stop)`` that processes task indices ``start..stop-1``, drawing task
        ``i`` from ``child_generator(root_key, i)``'s stream (in bulk:
        ``unit_states(root_key, start, stop)``), and returns one chunk
        result.
    count:
        Total number of logical tasks.
    root:
        Seed root (int, ``SeedSequence``, or ``RandomSource``); normalised
        with :func:`repro.runtime.seeding.seed_key`.
    jobs:
        Worker count; the pool lives for this call only (see
        :func:`executor_scope`).
    payload:
        Picklable shared context (typically the graph) handed to every chunk.
    num_chunks:
        Override the chunk count; results are identical for any value.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; when enabled the
        dispatch is routed through :func:`instrumented_map` and a
        ``runtime.tasks`` counter records the logical task count.

    Returns
    -------
    list
        Per-chunk results in chunk (i.e. index) order.
    """
    key = seed_key(root)
    if telemetry is not None and telemetry.enabled:
        telemetry.incr("runtime.tasks", count)  # repro-lint: allow[TEL001] logical task count; lives with the other runtime.* dispatch metrics (trace-format compat)
    with executor_scope(jobs) as resolved:
        chunks = (
            default_num_chunks(count, resolved.jobs)
            if num_chunks is None
            else require_positive_int(num_chunks, "num_chunks")
        )
        spans = chunk_spans(count, chunks) if count else []
        tasks = [(worker, payload, key, start, stop) for start, stop in spans]
        return instrumented_map(
            resolved, _invoke_seeded_chunk, tasks, telemetry=telemetry
        )


def run_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    jobs: int | None = None,
    telemetry: Any = None,
) -> list[Any]:
    """Map ``worker`` over explicit task descriptions (no seed splitting).

    For workloads whose per-task randomness is already fixed by the task
    itself (e.g. greedy trials carrying their own trial seed), this is a thin
    ordered map over the executor for ``jobs``, instrumented when
    ``telemetry`` is enabled (see :func:`instrumented_map`).
    """
    tasks = list(tasks)
    if telemetry is not None and telemetry.enabled:
        telemetry.incr("runtime.tasks", len(tasks))  # repro-lint: allow[TEL001] logical task count; lives with the other runtime.* dispatch metrics (trace-format compat)
    with executor_scope(jobs) as resolved:
        return instrumented_map(resolved, worker, tasks, telemetry=telemetry)
