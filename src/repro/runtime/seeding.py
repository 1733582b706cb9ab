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

Building a ``SeedSequence`` and a PCG64 generator per task costs far more
than a small task's traversal, so the chunk workers take their tasks' PCG64
states from :func:`unit_states` instead: it runs numpy's own ``SeedSequence``
hash and PCG64 seeding step over a whole span of task indices at once, and
the worker re-seats one generator per task with them.  The states equal
those of :func:`child_generator`, which ``tests/runtime`` pins against numpy.

Contract: a root passed to the runtime is *owned* by it for the duration of
the call — do not also call ``.spawn()`` on the same underlying sequence,
or the spawned children may coincide with task streams.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..diffusion.random_source import RandomSource, pcg64_state, seed_sequence
from ..exceptions import InvalidParameterError

#: A picklable description of a seed-sequence root: ``(entropy, spawn_key)``.
SeedKey = tuple

#: ``SeedSequence``'s hash constants (numpy's ``bit_generator.pyx``): the
#: entropy mixer's (A), the state generator's (B) and the pool mix's.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK_32 = 0xFFFFFFFF
#: Task indices one numpy pass of :func:`unit_states` derives at a time.
_BULK_UNITS = 1024


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
    """A fresh PCG64 generator for task ``index`` under root ``key``.

    The definition of task ``index``'s stream; :func:`unit_states` derives
    the same states in bulk and falls back to this for what it cannot.
    """
    return np.random.default_rng(child_sequence(key, index))


def unit_states(key: SeedKey, start: int, stop: int) -> Iterator[dict]:
    """The PCG64 state of every task ``start..stop-1`` under ``key``, in index order.

    Task ``i``'s state is ``child_generator(key, i).bit_generator.state``,
    derived in bulk.  Every task's ``SeedSequence`` hashes the same entropy
    and spawn-key words before its own index, so that prefix is mixed into
    the pool once; each index word is then mixed in, and the pool hashed
    into PCG64's seed words, for :data:`_BULK_UNITS` indices at a time in
    numpy ``uint32`` arithmetic.  An index of ``2**32`` or more spans two
    words; those tasks take :func:`child_generator`'s own state.
    """
    prefix = _prefix_pool(key)
    bulk_stop = max(start, min(stop, 1 << 32))
    for low in range(start, bulk_stop, _BULK_UNITS):
        yield from _bulk_states(prefix, low, min(low + _BULK_UNITS, bulk_stop))
    for index in range(bulk_stop, stop):
        yield child_generator(key, index).bit_generator.state


def _uint32_words(value) -> list[int]:
    """``value``'s 32-bit words, low first, as ``SeedSequence`` reads an int or nested ints."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK_32]
        while value > _MASK_32:
            value >>= 32
            words.append(value & _MASK_32)
        return words
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value, hash_const: int, multiplier: int = _MULT_A):
    """``SeedSequence``'s hash of ``value`` (an int or a ``uint32`` array) and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * multiplier & _MASK_32
    value = value * hash_const & _MASK_32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """``SeedSequence``'s mix of pool word ``x`` with hashed word ``y``."""
    result = ((_MIX_MULT_L * x & _MASK_32) - (_MIX_MULT_R * y & _MASK_32)) & _MASK_32
    return result ^ result >> 16


def _mix_word(pool: list, word, hash_const: int) -> tuple[list, int]:
    """The pool with one more entropy word mixed into each of its words."""
    mixed = []
    for pool_word in pool:
        hashed, hash_const = _hashmix(word, hash_const)
        mixed.append(_mix(pool_word, hashed))
    return mixed, hash_const


def _prefix_pool(key: SeedKey) -> tuple[list[int], int]:
    """The pool and hash constant of ``key``'s children before their index word.

    ``SeedSequence``'s ``mix_entropy`` over the entropy (zero-padded to the
    pool size, as it is for any sequence with a spawn key) and the spawn key.
    """
    entropy, spawn_key = key
    words = _uint32_words(entropy)
    words = words + [0] * (_POOL_SIZE - len(words)) + _uint32_words(spawn_key)
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                hashed, hash_const = _hashmix(pool[source], hash_const)
                pool[target] = _mix(pool[target], hashed)
    for word in words[_POOL_SIZE:]:
        pool, hash_const = _mix_word(pool, word, hash_const)
    return pool, hash_const


def _bulk_states(prefix: tuple[list[int], int], start: int, stop: int) -> Iterator[dict]:
    """The PCG64 states of tasks ``start..stop-1`` (``stop <= 2**32``) from their shared prefix."""
    pool, hash_const = prefix
    pool, _ = _mix_word(pool, np.arange(start, stop, dtype=np.uint32), hash_const)
    # generate_state(4, np.uint64): eight hashed pool words, paired low first.
    hash_const = _INIT_B
    halves = []
    for index in range(2 * _POOL_SIZE):
        hashed, hash_const = _hashmix(pool[index % _POOL_SIZE], hash_const, _MULT_B)
        halves.append(hashed.astype(np.uint64))
    seed_words = [
        (halves[2 * word] | halves[2 * word + 1] << np.uint64(32)).tolist()
        for word in range(_POOL_SIZE)
    ]
    return map(pcg64_state, *seed_words)
