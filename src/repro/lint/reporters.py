"""Finding reporters: human-readable text and machine-readable JSON.

The JSON document is versioned (:data:`JSON_REPORT_VERSION`); CI uploads it
as a build artifact.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .findings import Finding

__all__ = ["JSON_REPORT_VERSION", "render_json", "render_text"]

#: Schema version stamped into every JSON report.
JSON_REPORT_VERSION = 1


def _counts(findings: Sequence[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return dict(sorted(counts.items()))


def render_text(findings: Sequence[Finding]) -> str:
    """Human report: one ``path:line:col: RULE message`` line per finding."""
    if not findings:
        return "repro lint: no findings\n"
    lines = [finding.render() for finding in findings]
    errors = sum(1 for finding in findings if finding.severity == "error")
    warnings = len(findings) - errors
    summary = f"repro lint: {errors} error(s), {warnings} warning(s)"
    return "\n".join([*lines, summary]) + "\n"


def render_json(
    findings: Sequence[Finding],
    *,
    stats: Mapping[str, Any] | None = None,
) -> str:
    """Versioned JSON report with per-rule counts.

    ``stats`` (run statistics: the linted file count) is embedded
    under a ``"stats"`` key when provided.
    """
    document: dict[str, Any] = {
        "version": JSON_REPORT_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "counts": _counts(findings),
    }
    if stats is not None:
        document["stats"] = dict(stats)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
