"""Stateless, index-addressable random-stream splitting.

The parallel runtime must hand every logical task (one RR set, one cascade,
one snapshot) its own independent random stream in a way that does not
depend on scheduling.  :class:`numpy.random.SeedSequence` spawning is almost
that — children are independent and reproducible — but ``spawn`` is
*stateful* (each call advances ``n_children_spawned``), so two workers
spawning from copies of the same root would collide, and the set of streams
would depend on call order.

This module instead derives the child for task ``i`` directly as
``SeedSequence(entropy, spawn_key=parent_spawn_key + (i,))``, which is
exactly the child a fresh parent's ``spawn`` would produce for its ``i``-th
call, but computed statelessly from ``(root, i)``.  Any process can derive
any task's stream, so chunk boundaries and worker assignment cannot affect
results.

Contract: a root passed to the runtime is *owned* by it for the duration of
the call — do not also call ``.spawn()`` on the same underlying sequence,
or the spawned children may coincide with task streams.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.random_source import RandomSource, seed_sequence
from ..exceptions import InvalidParameterError

#: A picklable description of a seed-sequence root: ``(entropy, spawn_key)``.
SeedKey = tuple

def seed_key(root: int | np.random.SeedSequence | RandomSource) -> SeedKey:
    """Normalise a seed root into a picklable ``(entropy, spawn_key)`` pair.

    Accepts a :class:`~repro.diffusion.random_source.RandomSource` or any
    seed :class:`~repro.diffusion.random_source.RandomSource` itself accepts
    (a non-negative integer or a :class:`numpy.random.SeedSequence`, checked
    by the same :func:`~repro.diffusion.random_source.seed_sequence`).  Raw
    :class:`numpy.random.Generator` objects are rejected: a generator's
    current position cannot be captured by its seed sequence, so accepting
    one would silently ignore how far it had already been consumed.
    """
    sequence = root.sequence if isinstance(root, RandomSource) else seed_sequence(root)
    if sequence.entropy is None:  # pragma: no cover - numpy always sets entropy
        raise InvalidParameterError(
            "seed root has no recorded entropy and cannot be split reproducibly"
        )
    return (sequence.entropy, tuple(int(k) for k in sequence.spawn_key))


def child_sequence(key: SeedKey, index: int) -> np.random.SeedSequence:
    """The :class:`SeedSequence` for task ``index`` under root ``key``."""
    entropy, spawn_key = key
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(spawn_key) + (int(index),)
    )


def child_generator(key: SeedKey, index: int) -> np.random.Generator:
    """A fresh PCG64 generator for task ``index`` under root ``key``."""
    return np.random.default_rng(child_sequence(key, index))


def child_sources(
    root: int | np.random.SeedSequence | RandomSource, count: int
) -> list[RandomSource]:
    """``count`` independent :class:`RandomSource` children of ``root``.

    Convenience wrapper over :func:`seed_key`/:func:`child_sequence` for
    callers that batch at a coarser granularity than the engine.
    """
    key = seed_key(root)
    return [RandomSource(child_sequence(key, index)) for index in range(int(count))]
