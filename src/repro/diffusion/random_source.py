"""Seeded random-number management for reproducible experiments.

The paper (Section 4.1) is explicit about where pseudorandom numbers are
drawn: Oneshot draws one uniform per examined edge, Snapshot one uniform per
edge per sampled graph, and RIS uses two streams (one to pick a random target
vertex, one per examined in-edge).  Each of the ``T`` independent algorithm
runs uses a distinct PRNG seed.

:class:`RandomSource` wraps :class:`numpy.random.Generator` and provides
``spawn`` for deriving independent child streams deterministically, so a
single experiment seed expands into per-trial, per-algorithm streams without
correlation.  :class:`DrawStream` serves the scalar IC kernels: it reads a
PCG64 generator's raw words in blocks and decodes them exactly as numpy's
``random`` and ``integers`` would, so a kernel makes no numpy call per BFS
level or per RR-set target.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .._validation import require_non_negative_int
from ..exceptions import InvalidParameterError

#: A :class:`DrawStream`'s first prefetch, in 64-bit words; each refill
#: doubles the next one up to :data:`_LAST_BLOCK`.
_FIRST_BLOCK = 64
_LAST_BLOCK = 4096
#: The first prefetch of a re-seated unit's stream, listed whole (at most
#: :data:`_LISTED_STRETCH`): a small RR set or cascade draws a handful of
#: words, and a larger one refills as above.
_FIRST_UNIT_BLOCK = 32
#: Doubles a :class:`DrawStream` lists as Python floats at a time for small
#: levels; a large level reads the block as an array and skips the listing.
_LISTED_STRETCH = 256
_MASK_64 = (1 << 64) - 1
_MASK_128 = (1 << 128) - 1
#: The multiplier of PCG64's 128-bit LCG (numpy's ``PCG64``, XSL-RR output).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_EMPTY_DOUBLES = np.empty(0, dtype=np.float64)


def seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """The :class:`numpy.random.SeedSequence` a seed root names.

    The one seed check shared by :class:`RandomSource` and the parallel
    runtime's :func:`~repro.runtime.seeding.seed_key`: a ``SeedSequence`` is
    used as is, and an ``int`` or numpy integer (not a ``bool``) must be
    non-negative.  Anything else raises :class:`InvalidParameterError` rather
    than being truncated or coerced into some other seed.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if seed < 0:
            raise InvalidParameterError(f"seed must be non-negative, got {seed}")
        return np.random.SeedSequence(int(seed))
    if isinstance(seed, np.random.SeedSequence):
        return seed
    raise InvalidParameterError(
        "seed must be a non-negative int or a numpy SeedSequence, "
        f"got {type(seed).__name__} {seed!r}"
    )


class RandomSource:
    """A seeded source of uniform random numbers and child streams."""

    def __init__(self, seed: int | np.random.SeedSequence = 0) -> None:
        # Spawned children arrive as SeedSequences and need no seed check.
        self._sequence = seed if isinstance(seed, np.random.SeedSequence) else seed_sequence(seed)
        self._generator = np.random.default_rng(self._sequence)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (PCG64)."""
        return self._generator

    @property
    def sequence(self) -> np.random.SeedSequence:
        """The seed sequence this source was constructed from.

        The parallel runtime (:mod:`repro.runtime.seeding`) uses it to derive
        stateless per-task child streams; note it reflects the construction
        seed, not how far :attr:`generator` has since been consumed.
        """
        return self._sequence

    def spawn(self, count: int) -> list["RandomSource"]:
        """Create ``count`` statistically independent child sources."""
        require_non_negative_int(count, "count")
        return [RandomSource(child) for child in self._sequence.spawn(count)]

    def uniform(self, size: int | None = None) -> float | np.ndarray:
        """Uniform draws in ``[0, 1)``; a scalar when ``size`` is ``None``."""
        if size is None:
            return float(self._generator.random())
        return self._generator.random(size)

    def integers(self, upper: int, size: int | None = None) -> int | np.ndarray:
        """Uniform integers in ``[0, upper)``."""
        if size is None:
            return int(self._generator.integers(upper))
        return self._generator.integers(upper, size=size)

    def permutation(self, length: int) -> np.ndarray:
        """A uniformly random permutation of ``range(length)``."""
        return self._generator.permutation(length)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(entropy={self._sequence.entropy})"


class DrawStream:
    """A PCG64 generator's ``random``/``integers`` draws, served from prefetched blocks.

    Every draw is one 64-bit PCG64 word ``w``: numpy's ``random`` returns
    ``(w >> 11) * 2**-53``, and ``integers(n)`` for ``n <= 2**32`` is a
    32-bit Lemire draw over the generator's buffered halves (the low half
    of a word now, the high half kept for the next 32-bit draw; ``n == 1``
    consumes nothing and rejection redraws).  The stream fetches words in
    bounded blocks as numpy's own doubles, one ``random(size)`` call a
    block, and serves ``integers`` from the same words: a double carries
    ``w``'s top 53 bits, the whole high half and all but the lowest 11 bits
    of the low half.  When those 11 bits could change a Lemire draw (about
    ``n / 2**21`` of draws), the exact word is recomputed from the PCG64
    state the stream read on opening.  So the stream's draws are numpy's,
    value for value and in order.

    :meth:`reserve` serves small BFS levels from one persistent iterator
    over the block's doubles, listed as Python floats a stretch at a time;
    :meth:`array` serves large levels an array view of the same block.
    :meth:`close` (or leaving a ``with`` block) rewinds the words fetched
    but not drawn and restores the buffered half, in one state write, so
    the generator ends exactly where per-call numpy draws would have left
    it and direct draws after the stream compose with it.  While a stream
    is open nothing else may draw from its generator.  The first fetch is
    64 words (32 for a :class:`ReseatedGenerator`'s unit) and each refill
    doubles the next up to 4096 (or fetches what one request needs, when
    that is more).
    """

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise InvalidParameterError(
                "the scalar kernels decode PCG64 words only, got a generator over "
                f"{type(bit_generator).__name__}"
            )
        self.generator = generator
        self._bit_generator = bit_generator
        self._next_block = _FIRST_BLOCK
        self._open(bit_generator.state)

    def _open(self, state: dict) -> None:
        self._entry = state
        self._has_uint32, self._uinteger = state["has_uint32"], state["uinteger"]
        self._fetched = 0
        self._doubles = _EMPTY_DOUBLES
        self._draws: Iterator[float] = iter(())
        self._position = self._stop = self._listed = 0

    def _refill(self, count: int) -> None:
        """Make the block hold at least ``count`` undrawn words."""
        left = self._stop - self._position
        size = max(self._next_block, count - left)
        self._next_block = min(2 * self._next_block, _LAST_BLOCK)
        self._fetched += size
        doubles = self.generator.random(size)
        if left:
            doubles = np.concatenate((self._doubles[self._position :], doubles))
        self._doubles = doubles
        self._position, self._stop = 0, doubles.size

    def reserve(self, count: int) -> Iterator[float]:
        """The iterator yielding the next ``count`` doubles.

        The caller must take exactly ``count`` draws from it before the next
        call on the stream (the iterator runs on past them).
        """
        if self._listed - self._position < count:
            self._list(count)
        self._position += count
        return self._draws

    def _list(self, count: int) -> None:
        """List the next stretch of the block, at least ``count`` doubles, as Python floats.

        The stream's iterator serves level after level from it until the
        stretch runs out.
        """
        if self._stop - self._position < count:
            self._refill(count)
        self._listed = min(self._stop, self._position + max(count, _LISTED_STRETCH))
        self._draws = iter(self._doubles[self._position : self._listed].tolist())

    def array(self, count: int) -> np.ndarray:
        """The next ``count`` doubles as an array, the draws of ``random(count)``."""
        available = self._stop - self._position
        self._listed = 0  # the listed stretch no longer starts at the position
        if count <= available:
            self._position += count
            return self._doubles[self._position - count : self._position]
        # Larger than the block's rest: the rest, then fresh words drawn
        # through the generator, which stands right after the block.
        head = self._doubles[self._position : self._stop]
        self._fetched += count - available
        self._position = self._stop
        return np.concatenate((head, self.generator.random(count - available)))

    def _exact_word(self, index: int) -> int:
        """The stream's ``index``-th word, recomputed from the entry state (XSL-RR output)."""
        lcg = self._entry["state"]
        state = _pcg64_advance(lcg["state"], lcg["inc"], index + 1)
        xored = ((state >> 64) ^ state) & _MASK_64
        rotation = state >> 122
        return ((xored >> rotation) | (xored << (64 - rotation))) & _MASK_64

    def integers(self, upper: int) -> int:
        """The draw ``int(generator.integers(upper))`` would make, ``1 <= upper <= 2**32``."""
        if not 1 <= upper <= 1 << 32:
            raise InvalidParameterError(f"upper must be in [1, 2**32], got {upper}")
        if upper == 1:
            return 0
        threshold = ((1 << 32) - upper) % upper
        while True:
            if self._has_uint32:
                self._has_uint32 = 0
                scaled = self._uinteger * upper
            else:
                index = self._fetched - self._stop + self._position
                if self._listed <= self._position:
                    self._list(1)
                self._position += 1
                top = int(next(self._draws) * 2.0**53)  # w >> 11 of the next word w
                self._has_uint32, self._uinteger = 1, top >> 21
                # The low half with its lowest 11 bits unknown: settle the
                # draw from its bounds when they agree, else from the word.
                low = (top << 11) & 0xFFFFFFFF
                lowest, highest = low * upper, (low | 0x7FF) * upper
                if lowest >> 32 == highest >> 32 and lowest & 0xFFFFFFFF >= threshold:
                    return lowest >> 32
                scaled = (self._exact_word(index) & 0xFFFFFFFF) * upper
            if scaled & 0xFFFFFFFF >= threshold:
                return scaled >> 32

    def close(self) -> None:
        """Hand the generator back where per-call numpy draws would leave it.

        One state write: the entry state advanced by the words drawn, with
        the stream's buffered half.  The stream may be used again after.
        """
        state = self._entry
        half = (self._has_uint32, self._uinteger)
        if self._fetched or half != (state["has_uint32"], state["uinteger"]):
            lcg = state["state"]
            drawn = self._fetched - self._stop + self._position
            lcg["state"] = _pcg64_advance(lcg["state"], lcg["inc"], drawn)
            state["has_uint32"], state["uinteger"] = half
            self._bit_generator.state = state
        self._open(state)

    def __enter__(self) -> "DrawStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _reseat(self, state: dict) -> None:
        """Write ``state`` into the generator and start over on it, one block fetched.

        A re-seated stream is never closed: its generator is re-seated
        again before anything else draws from it.
        """
        self._bit_generator.state = state
        self._entry = state
        self._has_uint32, self._uinteger = state["has_uint32"], state["uinteger"]
        self._doubles = self.generator.random(_FIRST_UNIT_BLOCK)
        self._draws = iter(self._doubles.tolist())
        self._fetched = self._stop = self._listed = _FIRST_UNIT_BLOCK
        self._next_block = 2 * _FIRST_UNIT_BLOCK
        self._position = 0


class ReseatedGenerator:
    """One PCG64 generator re-seated to each of ``states`` in turn.

    Iterating yields the generator once per state (a PCG64 state dict, as
    ``bit_generator.state`` holds it), written into the generator just
    before: the parallel runtime's task units, each on its own stream
    (:func:`~repro.runtime.seeding.unit_states`), without a generator each.
    A kernel must be done with one unit before it asks for the next, as
    every kernel's in-order loop is.  ``states`` is consumed once.
    :func:`draw_streams` serves the units from :meth:`streams`.
    """

    def __init__(self, states: Iterable[dict]) -> None:
        self._states = states
        self._generator = np.random.Generator(np.random.PCG64(0))

    def __iter__(self) -> Iterator[np.random.Generator]:
        bit_generator = self._generator.bit_generator
        for state in self._states:
            bit_generator.state = state
            yield self._generator

    def streams(self) -> Iterator[DrawStream]:
        """One :class:`DrawStream` per unit, started over on the unit's state.

        The stream takes the state it writes rather than reading it back,
        fetches a first block of :data:`_FIRST_UNIT_BLOCK` words, and is
        never closed: the next unit's state overwrites whatever it drew.
        """
        stream = DrawStream(self._generator)
        for state in self._states:
            stream._reseat(state)
            yield stream


def _pcg64_jumps() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Jump tables of PCG64's 128-bit LCG, one per base-64 digit of a step count.

    One step is ``state * M + increment``; ``j`` steps compose to
    ``M**j * state + increment * (1 + M + ... + M**(j - 1))``.  Entry ``d``
    of table ``t`` holds that ``(M**j, 1 + ... + M**(j - 1))`` pair, mod
    ``2**128``, for ``j = d * 64**t``.
    """
    tables = []
    multiplier, increments = _PCG64_MULTIPLIER, 1  # the table's unit jump
    for _ in range(11):  # 64**11 > 2**64 steps
        row = [(1, 0)]
        for _ in range(64):
            last_multiplier, last_increments = row[-1]
            row.append(
                (
                    last_multiplier * multiplier & _MASK_128,
                    (last_increments * multiplier + increments) & _MASK_128,
                )
            )
        multiplier, increments = row.pop()
        tables.append(tuple(row))
    return tuple(tables)


_PCG64_JUMPS = _pcg64_jumps()


def _pcg64_advance(state: int, increment: int, steps: int) -> int:
    """PCG64's 128-bit LCG state ``steps`` words after ``state``."""
    multiplier, increments = 1, 0
    for table in _PCG64_JUMPS:
        if not steps:
            break
        jump_multiplier, jump_increments = table[steps & 63]
        multiplier = multiplier * jump_multiplier & _MASK_128
        increments = (increments * jump_multiplier + jump_increments) & _MASK_128
        steps >>= 6
    return (multiplier * state + increment * increments) & _MASK_128


def pcg64_state(high_state: int, low_state: int, high_sequence: int, low_sequence: int) -> dict:
    """The state of a PCG64 seeded with ``generate_state(4, np.uint64)`` words.

    numpy's ``pcg64_set_seed``: the first two words are the initial state
    and the last two the stream, each high word first; the LCG starts at 0
    with increment ``2 * stream + 1``, steps, adds the initial state and
    steps again.
    """
    increment = ((high_sequence << 64 | low_sequence) << 1 | 1) & _MASK_128
    state = (high_state << 64 | low_state) + increment
    return {
        "bit_generator": "PCG64",
        "state": {"state": (state * _PCG64_MULTIPLIER + increment) & _MASK_128, "inc": increment},
        "has_uint32": 0,
        "uinteger": 0,
    }


def draw_streams(generators: Iterable[np.random.Generator]) -> Iterator[DrawStream]:
    """One :class:`DrawStream` per entry of ``generators``, closed when done.

    Consecutive entries that are one generator object (a single shared
    stream) share one stream; each new generator closes the previous stream
    and opens its own.  A :class:`ReseatedGenerator` (the runtime's per-unit
    streams) is one object throughout, so it gets a stream started over on
    every unit instead (:meth:`ReseatedGenerator.streams`).
    """
    if isinstance(generators, ReseatedGenerator):
        yield from generators.streams()
        return
    stream = None
    try:
        for generator in generators:
            if stream is None or stream.generator is not generator:
                if stream is not None:
                    stream.close()
                stream = DrawStream(generator)
            yield stream
    finally:
        if stream is not None:
            stream.close()


def trial_seeds(experiment_seed: int, num_trials: int) -> list[int]:
    """Derive ``num_trials`` distinct 32-bit trial seeds from one experiment seed.

    The derivation uses :class:`numpy.random.SeedSequence` spawning so the
    per-trial streams are independent; the returned integers are convenient to
    log and to re-run a single trial in isolation.
    """
    require_non_negative_int(experiment_seed, "experiment_seed")
    require_non_negative_int(num_trials, "num_trials")
    sequence = np.random.SeedSequence(experiment_seed)
    return [int(child.generate_state(1)[0]) for child in sequence.spawn(num_trials)]
