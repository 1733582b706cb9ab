"""TEL001: counter names must match the deterministic-naming convention.

:func:`repro.obs.telemetry.is_deterministic_counter` classifies counters by
name alone: everything outside ``runtime.*`` not ending in ``_seconds``/
``_bytes`` is promised to be a deterministic function of spec + seed.  The
classification only works if names are chosen consistently, so this rule
checks every counter-name literal passed to ``.incr(...)``:

* a name with an environmental unit suffix (``_seconds``/``_bytes``) whose
  static namespace is *not* ``runtime.`` is flagged — measured quantities
  belong under ``runtime.*`` or a phase-parameterised namespace
  (f-strings with a dynamic ``{phase}.`` prefix are treated as
  phase-namespaced and skipped);
* conversely, a literal ``runtime.*`` name *without* a unit suffix is
  flagged — either it is a deterministic count that belongs outside the
  environmental namespace, or it is a measurement missing its unit
  (genuine environmental counts are suppressed inline with a reason);
* a counter increment whose value expression directly calls a wall-clock
  function must use a ``_seconds`` name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import LintRule
from ..walker import SourceModule

__all__ = ["CounterNamingRule"]

_UNIT_SUFFIXES: tuple[str, ...] = ("_seconds", "_bytes")

_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.perf_counter",
        "time.monotonic",
        "time.process_time",
    }
)


class CounterNamingRule(LintRule):
    """TEL001: literal counter names vs. the deterministic-name convention."""

    rule_id = "TEL001"
    summary = (
        "telemetry counter-name literal inconsistent with the "
        "is_deterministic_counter naming convention"
    )
    exempt_fragments = ("/tests/", "tests/conftest")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        calls = module.index.calls
        clocks = [node for node, name, _ in calls if name in _CLOCK_CALLS]
        for node, _, _ in calls:
            if not (
                isinstance(node.func, ast.Attribute) and node.func.attr == "incr"
            ):
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            literal = self._static_name(name_arg)
            if literal is None:
                continue
            name, prefix_known = literal
            has_suffix = name.endswith(_UNIT_SUFFIXES)
            in_runtime = name.startswith("runtime.")
            if prefix_known and has_suffix and not in_runtime:
                yield self.finding(
                    module,
                    name_arg,
                    f"counter {name!r} carries an environmental unit suffix "
                    "but lives outside the runtime.* namespace; move it "
                    "under runtime.* (or a phase-parameterised namespace)",
                )
            elif prefix_known and in_runtime and not has_suffix:
                yield self.finding(
                    module,
                    name_arg,
                    f"counter {name!r} sits in the environmental runtime.* "
                    "namespace without a unit suffix; deterministic counts "
                    "belong outside runtime.*, measurements need "
                    "_seconds/_bytes",
                )
            if not has_suffix and self._measures_wall_clock(module, node, clocks):
                yield self.finding(
                    module,
                    name_arg,
                    f"counter {name!r} accumulates a wall-clock measurement "
                    "but is named like a deterministic counter; use a "
                    "_seconds name",
                )

    def _static_name(self, node: ast.expr) -> tuple[str, bool] | None:
        """``(name, prefix_known)`` for literal or literal-tailed names.

        Plain string constants are fully known.  For f-strings only the
        rendered *tail* matters for the suffix check; the prefix is known
        only when the first piece is a constant (``f"runtime.{x}"``), and a
        dynamic prefix (``f"{phase}.kernel_seconds"``) marks the name as
        phase-namespaced: suffix placement is the phase owner's contract.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, True
        if isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                # Static prefix: judge it like a literal (the dynamic parts
                # cannot remove a runtime. prefix already present).
                return first.value, True
            return None
        return None

    def _measures_wall_clock(
        self, module: SourceModule, node: ast.Call, clocks: list[ast.Call]
    ) -> bool:
        """Whether the increment value calls one of the wall-clock ``clocks``."""
        return len(node.args) > 1 and any(
            module.index.within(clock, (node.args[1],)) for clock in clocks
        )
