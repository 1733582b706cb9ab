"""Empirical seed-set distributions and their Shannon entropy (Section 5.1).

The paper measures the diversity of the random solutions returned by each
algorithm with the Shannon entropy ``H = -sum_S p_S log2 p_S`` of the
empirical distribution over seed *sets*.  A degenerate distribution (a single
seed set across all trials) has entropy 0; a distribution built from ``T``
trials can never exceed ``log2 T`` (~9.97 for the paper's 1,000 trials).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class SeedSetDistribution:
    """Empirical probability distribution over canonical seed sets."""

    counts: Mapping[tuple[int, ...], int]
    num_trials: int

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_seed_sets(seed_sets: Iterable[tuple[int, ...]]) -> "SeedSetDistribution":
        """Build the distribution from raw per-trial seed sets."""
        canonical = [tuple(sorted(seed_set)) for seed_set in seed_sets]
        counter = Counter(canonical)
        return SeedSetDistribution(counts=dict(counter), num_trials=len(canonical))

    # ------------------------------------------------------------------ #
    @property
    def support_size(self) -> int:
        """Number of distinct seed sets observed."""
        return len(self.counts)

    def probability(self, seed_set: tuple[int, ...]) -> float:
        """Empirical probability mass of ``seed_set``."""
        if self.num_trials == 0:
            return 0.0
        return self.counts.get(tuple(sorted(seed_set)), 0) / self.num_trials

    def mode(self) -> tuple[tuple[int, ...], float]:
        """The most frequent seed set and its empirical probability."""
        if not self.counts:
            return ((), 0.0)
        seed_set, count = max(self.counts.items(), key=lambda item: (item[1], item[0]))
        return seed_set, count / self.num_trials

    def entropy(self) -> float:
        """Shannon entropy in bits of the empirical distribution."""
        if self.num_trials == 0:
            return 0.0
        total = 0.0
        for count in self.counts.values():
            p = count / self.num_trials
            total -= p * math.log2(p)
        return total

    def top_seed_sets(self, count: int = 5) -> list[tuple[tuple[int, ...], float]]:
        """The ``count`` most frequent seed sets and their probabilities."""
        ordered = sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))
        return [(seed_set, c / self.num_trials) for seed_set, c in ordered[:count]]


def shannon_entropy(seed_sets: Iterable[tuple[int, ...]]) -> float:
    """Convenience wrapper: entropy of the empirical distribution of ``seed_sets``."""
    return SeedSetDistribution.from_seed_sets(seed_sets).entropy()
