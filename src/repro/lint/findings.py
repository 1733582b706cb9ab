"""The :class:`Finding` record: one statically detected contract violation.

A finding pins a rule id to a source location with a human-readable message
and a severity.  Findings are value objects: hashable, totally ordered by
``(path, line, column, rule)`` so reports are deterministic regardless of
the order rules ran in, and serialized by the JSON reporter
(:mod:`repro.lint.reporters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities, strongest first.
SEVERITIES: tuple[str, ...] = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding: rule id, location, message, severity.

    Ordering sorts by location first (``path``, ``line``, ``column``) and
    rule id second, which is the order both reporters emit.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    severity: str = field(default="error", compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of: {', '.join(SEVERITIES)}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Serialize to the JSON-reporter record shape."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        """One-line human rendering: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"
