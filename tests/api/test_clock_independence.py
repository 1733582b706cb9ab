"""Results are a function of spec and seed, never of the clock.

Each experiment kind runs twice on karate: once as is, and once with every
``time`` clock patched to one that leaps an hour on each read.  A result
that read the clock (a timestamp, a time budget, a duration-dependent
branch) differs between the two runs.  Telemetry stays off, as in a plain
``repro run``.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.api.specs import (
    EstimatorSpec,
    GraphSpec,
    MaximizeSpec,
    StatsSpec,
    SweepSpec,
    TraversalSpec,
    TrialsSpec,
)

_KARATE = GraphSpec(dataset="karate", probability="uc0.1")

SPECS = {
    "stats": StatsSpec(dataset="karate"),
    "maximize": MaximizeSpec(
        graph=_KARATE, estimator=EstimatorSpec("ris", 256), k=2, pool_size=2000
    ),
    "maximize-bitparallel": MaximizeSpec(
        graph=_KARATE,
        estimator=EstimatorSpec("oneshot", 64, batch_mode="bitparallel"),
        k=2,
        pool_size=2000,
    ),
    "trials": TrialsSpec(
        graph=_KARATE, estimator=EstimatorSpec("snapshot", 16), k=2, num_trials=4,
        pool_size=2000,
    ),
    "sweep": SweepSpec(
        graph=_KARATE, approach="oneshot", max_exponent=3, num_trials=4, pool_size=2000
    ),
    "traversal": TraversalSpec(graph=_KARATE, repetitions=2),
}


class _LeapingClock:
    """A clock that moves forward one hour on every read."""

    def __init__(self) -> None:
        self.reads = 0

    def seconds(self) -> float:
        self.reads += 1
        return self.reads * 3600.0

    def nanoseconds(self) -> int:
        return int(self.seconds() * 1e9)


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_result_ignores_the_clock(monkeypatch, spec):
    expected = repro.run(spec).to_dict()
    clock = _LeapingClock()
    for name in ("time", "perf_counter", "monotonic"):
        monkeypatch.setattr(time, name, clock.seconds)
        monkeypatch.setattr(time, f"{name}_ns", clock.nanoseconds)
    assert repro.run(spec).to_dict() == expected
