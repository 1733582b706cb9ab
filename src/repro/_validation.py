"""Small, shared argument-validation helpers.

These helpers keep validation logic and error messages uniform across the
library.  They are deliberately tiny: each checks exactly one property and
raises an exception from :mod:`repro.exceptions` with a descriptive message.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence

from .exceptions import InvalidParameterError, InvalidSeedSetError


def require_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a positive integer, otherwise raise.

    Booleans are rejected even though they are ``int`` subclasses, because a
    ``True`` sample number is almost certainly a bug at the call site.
    """
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    if value <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return value


def require_positive_real(value: float, name: str) -> float:
    """Return ``value`` as a float if it is a finite positive number, otherwise raise.

    Booleans are rejected as in :func:`require_positive_int`, and so are NaN
    and the infinities, which no size or rate can take.
    """
    message = f"{name} must be a finite positive number, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(message)
    try:
        as_float = float(value)
    except OverflowError:  # an int too large for a float
        raise InvalidParameterError(message) from None
    if not (math.isfinite(as_float) and as_float > 0.0):
        raise InvalidParameterError(message)
    return as_float


def require_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is a non-negative integer, otherwise raise."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise InvalidParameterError(f"{name} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise InvalidParameterError(f"{name} must be non-negative, got {value}")
    return value


def require_probability(value: float, name: str, *, allow_zero: bool = False) -> float:
    """Return ``value`` if it is a valid probability, otherwise raise.

    By default the accepted range is the half-open interval ``(0, 1]`` used
    for influence probabilities; ``allow_zero`` widens it to ``[0, 1]``.
    """
    try:
        as_float = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from exc
    lower_ok = as_float >= 0.0 if allow_zero else as_float > 0.0
    if not lower_ok or as_float > 1.0:
        interval = "[0, 1]" if allow_zero else "(0, 1]"
        raise InvalidParameterError(f"{name} must lie in {interval}, got {as_float}")
    return as_float


def require_fraction(value: float, name: str) -> float:
    """Return ``value`` if it lies strictly between 0 and 1, otherwise raise."""
    try:
        as_float = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from exc
    if not 0.0 < as_float < 1.0:
        raise InvalidParameterError(f"{name} must lie strictly in (0, 1), got {as_float}")
    return as_float


def require_vertex(vertex: int, num_vertices: int, name: str = "vertex") -> int:
    """Return ``vertex`` if it indexes a vertex of a graph with ``num_vertices``."""
    if isinstance(vertex, bool) or not isinstance(vertex, (int,)):
        raise InvalidSeedSetError(f"{name} must be an integer vertex id, got {vertex!r}")
    if not 0 <= vertex < num_vertices:
        raise InvalidSeedSetError(
            f"{name} {vertex} is out of range for a graph with {num_vertices} vertices"
        )
    return int(vertex)


def normalize_seed_set(seeds: Iterable[int], num_vertices: int) -> tuple[int, ...]:
    """Validate and canonicalise a seed set.

    The result is a sorted tuple of distinct vertex ids, which is hashable and
    therefore usable as a key in seed-set distributions.
    """
    seed_list = [require_vertex(int(v), num_vertices, name="seed vertex") for v in seeds]
    unique = sorted(set(seed_list))
    if len(unique) != len(seed_list):
        raise InvalidSeedSetError(f"seed set contains duplicate vertices: {sorted(seed_list)}")
    return tuple(unique)


def require_choice(value: str, choices: Sequence[str], name: str) -> str:
    """Return ``value`` if it is one of ``choices``, otherwise raise."""
    if value not in choices:
        raise InvalidParameterError(
            f"{name} must be one of {sorted(choices)}, got {value!r}"
        )
    return value
