"""Fixture: sanctioned generator threading — RNG002 must stay quiet."""

import numpy as np


def resample(values, rng=None, seed=0):
    if rng is None:
        rng = np.random.default_rng(seed)
    return rng.permutation(values)


def _private_helper(seed, rng):
    return np.random.default_rng(seed)


def public(seed, rng):
    # A nested function is its own scope: the outer rng does not bind it.
    def _helper():
        return np.random.default_rng(seed)

    return _helper
