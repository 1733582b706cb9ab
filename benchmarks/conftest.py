"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's tables or figures at
reduced scale (see EXPERIMENTS.md for the scale map) and both prints the rows
and writes them to ``benchmarks/output/<name>.txt`` so results survive output
capturing.  Expensive per-instance artifacts (graphs, oracles) are cached at
session scope; the benchmarked callables are run with
``benchmark.pedantic(rounds=1)`` because a full experiment is itself the unit
of measurement.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.estimation.oracle import RRPoolOracle
from repro.obs import atomic_write_text
from repro.graphs.datasets import load_dataset
from repro.graphs.probability import assign_probabilities

#: Directory where benchmark tables are written.
OUTPUT_DIR = Path(__file__).parent / "output"

#: Trials per configuration (the paper uses 1,000; reduced for pure Python).
DEFAULT_TRIALS = 25

#: Oracle pool size (the paper uses 10^7; reduced for pure Python).
DEFAULT_POOL_SIZE = 15_000


def emit(name: str, text: str) -> None:
    """Print a rendered table/series and persist it under benchmarks/output/.

    Written atomically so an interrupted benchmark run never leaves a
    truncated table behind.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    atomic_write_text(OUTPUT_DIR / f"{name}.txt", text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def instance_cache():
    """Cache of (dataset, probability model, scale) -> influence graph."""
    cache: dict[tuple[str, str, float], object] = {}

    def get(dataset: str, model: str, *, scale: float = 1.0, seed: int = 0):
        key = (dataset, model, scale)
        if key not in cache:
            graph = load_dataset(dataset, scale=scale, seed=seed)
            cache[key] = assign_probabilities(graph, model)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def oracle_cache(instance_cache):
    """Cache of (instance, pool size) -> shared RR-pool oracle."""
    cache: dict[tuple[str, str, float, int], RRPoolOracle] = {}

    def get(dataset: str, model: str, *, scale: float = 1.0, pool_size: int = DEFAULT_POOL_SIZE):
        key = (dataset, model, scale, pool_size)
        if key not in cache:
            graph = instance_cache(dataset, model, scale=scale)
            cache[key] = RRPoolOracle(graph, pool_size=pool_size, seed=1234)
        return cache[key]

    return get
