"""TME001: wall-clock reads stay inside the observability layer.

Results must be a pure function of spec + seed; a ``time.time()`` or
``datetime.now()`` anywhere in the compute layers leaks the environment
into outputs (timestamps in results, time-based early exits, duration-
dependent branching).  The observability layer (``repro/obs/``) and the
benchmark harness are the sanctioned homes for clocks — everything else is
flagged.  Genuine infrastructure timing outside those homes (e.g. the
runtime engine's per-task duration capture) carries an inline suppression
with the reason spelled out.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import call_name
from ..findings import Finding
from ..registry import LintRule
from ..walker import SourceModule

__all__ = ["WallClockRule"]

_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(LintRule):
    """TME001: no wall-clock reads outside obs/ and benchmarks/."""

    rule_id = "TME001"
    summary = (
        "wall-clock read (time.*, datetime.now) outside repro/obs/ and "
        "benchmarks/ — results must be a function of spec + seed"
    )
    exempt_fragments = (
        "repro/obs/",
        "benchmarks/",
        "/tests/",
        "tests/conftest",
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, module.aliases)
            if name in _CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the wall clock outside the "
                    "observability layer; route timing through repro.obs "
                    "or drop it",
                )
