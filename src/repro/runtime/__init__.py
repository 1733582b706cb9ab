"""Deterministic multi-worker execution runtime.

This subsystem is the architectural seam between the repo's embarrassingly
parallel hot paths (forward cascades, live-edge snapshots, RR-set sampling,
independent greedy trials) and how they are scheduled onto CPUs.  It has
three layers:

``repro.runtime.seeding``
    A stateless :class:`numpy.random.SeedSequence` stream-splitter.  Every
    parallel task ``i`` of a run derives its generator from
    ``SeedSequence(entropy, spawn_key=root_key + (i,))``, so the random
    stream of a task depends only on the root seed and the task index —
    never on which worker ran it, how tasks were chunked, or in what order
    chunks completed.

``repro.runtime.chunking``
    Deterministic index-span partitioning used to batch fine-grained tasks
    (one RR set, one cascade) into coarse chunks worth shipping to a worker
    process.

``repro.runtime.executor`` / ``repro.runtime.engine``
    The :class:`Executor` protocol with two implementations —
    :class:`SerialExecutor` (in-process, zero dependencies) and
    :class:`ParallelExecutor` (a ``concurrent.futures.ProcessPoolExecutor``
    pool) — plus the :func:`run_seeded_tasks` engine that combines all three
    layers.

The determinism contract
------------------------

For any entry point accepting ``jobs=``, the output is a pure function of
the root seed and the task count: ``jobs=1`` and ``jobs=8`` produce
bit-identical results, as do different chunk sizes.  This is
achieved by seeding *per task index*, not per worker or per chunk, and by
merging chunk results (lists, integer cost counters) in chunk order, which
makes every reduction exact.

Passing ``jobs=None`` (the default everywhere) keeps the historical
single-stream sequential behaviour, which draws all randomness from one
generator and therefore differs from the split-stream ``jobs>=1`` path.
Opting into the runtime (any non-``None`` ``jobs``) opts into the
split-stream seeding contract.  ``jobs`` is the only parallelism knob: each
call that needs a worker pool opens it and closes it before returning, so no
worker process outlives the call.
"""

from .chunking import chunk_spans, default_num_chunks
from .engine import executor_scope, run_seeded_tasks, run_tasks
from .executor import Executor, ParallelExecutor, SerialExecutor
from .seeding import (
    child_generator,
    child_sequence,
    child_sources,
    seed_key,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_scope",
    "run_seeded_tasks",
    "run_tasks",
    "chunk_spans",
    "default_num_chunks",
    "seed_key",
    "child_sequence",
    "child_generator",
    "child_sources",
]
