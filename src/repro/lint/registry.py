"""Rule registry: the fixed set of static contract checks.

Rules are instances keyed by their ``rule_id``.  The set is closed: the
built-in rules of :mod:`repro.lint.rules` are the only entries, and
``repro lint --rules`` selects among them by id.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .project import ProjectAnalysis
    from .walker import SourceModule

__all__ = [
    "BUILTIN_PROJECT_RULE_IDS",
    "BUILTIN_RULE_IDS",
    "FRAMEWORK_RULE_IDS",
    "LintRule",
    "ProjectRule",
    "available_rules",
    "get_rule",
]

#: Ids of the shipped per-module AST rules.
BUILTIN_RULE_IDS: frozenset[str] = frozenset(
    {"RNG001", "RNG002", "ORD001", "TEL001", "IMP001"}
)

#: Ids of the shipped whole-program rules.
BUILTIN_PROJECT_RULE_IDS: frozenset[str] = frozenset({"CTX001"})

#: Ids emitted by the framework itself (not AST rules, not selectable):
#: ``PAR001`` for files that fail to parse, ``SUP001`` for suppression
#: hygiene (unused or unknown ``allow[...]`` entries).
FRAMEWORK_RULE_IDS: tuple[str, ...] = ("PAR001", "SUP001")


class LintRule(abc.ABC):
    """Base class for one static contract check.

    Subclasses set the class attributes and implement :meth:`check`, yielding
    :class:`~repro.lint.findings.Finding` objects for one parsed module.
    ``exempt_fragments`` lists path fragments (posix form) where the rule
    never applies — the sanctioned homes of the behaviour it polices.
    """

    #: Unique rule id (e.g. ``RNG001``); also the suppression token.
    rule_id: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""
    #: Severity attached to this rule's findings.
    severity: str = "error"
    #: Posix path fragments where the rule does not apply (see
    #: :meth:`repro.lint.walker.SourceModule.matches_fragment`).
    exempt_fragments: tuple[str, ...] = ()

    @abc.abstractmethod
    def check(self, module: "SourceModule") -> Iterator[Finding]:
        """Yield findings for ``module`` (already confirmed non-exempt)."""

    def finding(
        self, module: "SourceModule", node: object, message: str
    ) -> Finding:
        """Build a finding for an AST ``node`` (or ``(line, col)`` pair)."""
        line = getattr(node, "lineno", None)
        column = getattr(node, "col_offset", None)
        if line is None:
            line, column = node  # type: ignore[misc]
        return Finding(
            path=module.display_path,
            line=int(line),
            column=int(column or 0),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )


class ProjectRule(abc.ABC):
    """Base class for one whole-program (cross-file) contract check.

    The second rule kind: where :class:`LintRule` sees one parsed module,
    a ``ProjectRule`` sees the assembled
    :class:`~repro.lint.project.ProjectAnalysis` call graph and yields
    findings anchored to the file each violation lives in.  Registration, selection (``--rules``), suppression
    (inline ``allow[...]``), and the exit-code contract are identical to
    per-module rules.
    """

    #: Unique rule id (e.g. ``CTX001``); also the suppression token.
    rule_id: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""
    #: Severity attached to this rule's findings.
    severity: str = "error"
    #: Posix path fragments whose findings are dropped (fixture paths are
    #: never exempt, mirroring per-module rules).
    exempt_fragments: tuple[str, ...] = ()

    @abc.abstractmethod
    def check(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        """Yield findings for the whole-program ``project`` view."""

    def finding(
        self, path: str, location: object, message: str
    ) -> Finding:
        """Build a finding at ``path`` for a node or ``(line, col)`` pair."""
        line = getattr(location, "line", None) or getattr(
            location, "lineno", None
        )
        column = getattr(location, "column", None)
        if column is None:
            column = getattr(location, "col_offset", None)
        if line is None:
            line, column = location  # type: ignore[misc]
        return Finding(
            path=path,
            line=int(line),
            column=int(column or 0),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )


#: Rule id -> rule instance; filled once by :mod:`repro.lint.rules` on import.
_REGISTRY: dict[str, "LintRule | ProjectRule"] = {}


def available_rules() -> tuple[str, ...]:
    """Registered rule ids, sorted."""
    return tuple(sorted(_REGISTRY))


def get_rule(rule_id: str) -> "LintRule | ProjectRule":
    """Look up a registered rule by id."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r}; available: {', '.join(available_rules())}"
        ) from None
