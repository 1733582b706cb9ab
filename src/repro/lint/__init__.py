"""Static determinism & contract linter for the repro codebase.

The test suite checks the determinism contracts *dynamically* — equal
outputs across seeds, jobs counts, executors.  This package enforces the
same contracts *statically*: AST rules walk the source and flag code that
could violate reproducibility even on paths no test exercises.

Shipped per-module rules (see :data:`repro.lint.registry.BUILTIN_RULE_IDS`):

========  ==============================================================
RNG001    ambient randomness outside the sanctioned seeding modules
RNG002    rng-threaded functions constructing fresh generators
ORD001    set / unsorted-directory iteration order feeding results
TEL001    counter names breaking the deterministic-naming convention
IMP001    import crossing the [tool.repro-lint.layers] layer DAG
========  ==============================================================

One whole-program rule (:data:`~repro.lint.registry.BUILTIN_PROJECT_RULE_IDS`)
sees the assembled call graph (:mod:`repro.lint.project`) rather than one
file at a time:

========  ==============================================================
CTX001    seam kwarg (rng/jobs/telemetry/...) dropped between layers
========  ==============================================================

Four contracts are checked at run time by tests, not by rules:
picklable executor workers (every executor call site runs under a real
process pool), spec round-trips (a field-coverage table in
``tests/api/test_specs.py``), clock independence (every spec kind runs
identically under a leaping clock, ``tests/api/test_clock_independence.py``)
and export integrity (EXP001: every ``__all__`` name and ``_EXPORTS`` entry
of every module resolves, ``tests/test_public_api.py``).

Findings are silenced line-by-line with ``# repro-lint: allow[RULE-ID]``;
unused suppressions are themselves reported (``SUP001``).  The rule set is
fixed: per-module checks subclass :class:`LintRule`, whole-program checks
subclass :class:`ProjectRule`, and :mod:`repro.lint.rules` registers each
built-in rule once.

This package is deliberately stdlib-only (no numpy) so
``python -m repro.lint`` runs in a bare interpreter.
"""

from __future__ import annotations

from .config import LintConfig, load_config
from .errors import LintError
from .findings import SEVERITIES, Finding
from .project import ModuleSummary, ProjectAnalysis, summarize_module
from .registry import (
    BUILTIN_PROJECT_RULE_IDS,
    BUILTIN_RULE_IDS,
    FRAMEWORK_RULE_IDS,
    LintRule,
    ProjectRule,
    available_rules,
    get_rule,
)
from .reporters import JSON_REPORT_VERSION, render_json, render_text
from .suppressions import Suppression, collect_suppressions
from .walker import LintRun, SourceModule, collect_files, run_lint

from . import rules as _rules  # noqa: F401  (import registers the built-in rules)

from .cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

__all__ = [
    "BUILTIN_PROJECT_RULE_IDS",
    "BUILTIN_RULE_IDS",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "FRAMEWORK_RULE_IDS",
    "Finding",
    "JSON_REPORT_VERSION",
    "LintConfig",
    "LintError",
    "LintRule",
    "LintRun",
    "ModuleSummary",
    "ProjectAnalysis",
    "ProjectRule",
    "SEVERITIES",
    "SourceModule",
    "Suppression",
    "available_rules",
    "collect_files",
    "collect_suppressions",
    "get_rule",
    "load_config",
    "main",
    "render_json",
    "render_text",
    "run_lint",
    "summarize_module",
]
