"""Seeded random-number management for reproducible experiments.

The paper (Section 4.1) is explicit about where pseudorandom numbers are
drawn: Oneshot draws one uniform per examined edge, Snapshot one uniform per
edge per sampled graph, and RIS uses two streams (one to pick a random target
vertex, one per examined in-edge).  Each of the ``T`` independent algorithm
runs uses a distinct PRNG seed.

:class:`RandomSource` wraps :class:`numpy.random.Generator` and provides
``spawn`` for deriving independent child streams deterministically, so a
single experiment seed expands into per-trial, per-algorithm streams without
correlation.
"""

from __future__ import annotations

import numpy as np

from .._validation import require_non_negative_int
from ..exceptions import InvalidParameterError


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
