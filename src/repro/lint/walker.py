"""File/package walker: parse sources, run rules, apply suppressions.

:func:`run_lint` is the library entry point behind both CLIs.  One run:

1. expands files and directories into a sorted list of ``*.py`` modules
   (directory walks are explicitly sorted — the linter obeys its own
   ordering rule);
2. parses each module, yielding per-module rule findings *and* a
   :class:`~repro.lint.project.ModuleSummary` for the call graph;
3. assembles the summaries into a
   :class:`~repro.lint.project.ProjectAnalysis` and runs the selected
   :class:`~repro.lint.registry.ProjectRule` checks over it;
4. silences findings covered by inline ``allow[...]`` comments and reports
   suppression hygiene.

The result is a deterministic, sorted list of findings plus run statistics.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .astutil import collect_import_aliases, parent_map
from .config import LintConfig, load_config
from .errors import LintError
from .findings import Finding
from .project import ModuleSummary, ProjectAnalysis, module_name_for_path, summarize_module
from .registry import LintRule, ProjectRule, available_rules, get_rule
from .suppressions import Suppression, collect_suppressions

__all__ = [
    "LintError",
    "LintRun",
    "SourceModule",
    "collect_files",
    "run_lint",
]

#: Directories never descended into when walking a package tree.
_SKIPPED_DIRS: frozenset[str] = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".mypy_cache",
        ".ruff_cache",
        "node_modules",
    }
)

#: Paths containing this fragment are *never* rule-exempt:
#: the lint test fixtures intentionally violate every contract and must keep
#: firing even though they live under ``tests/``.
_FIXTURE_FRAGMENT = "lint/fixtures"


def _path_is_exempt(posix: str, fragments: Iterable[str]) -> bool:
    """Whether a posix path matches any exemption fragment (fixtures never do)."""
    if _FIXTURE_FRAGMENT in posix:
        return False
    return any(fragment in posix for fragment in fragments)


@dataclass
class SourceModule:
    """One parsed module handed to every per-module rule.

    Carries the parse tree, the module's dotted name and the run's config,
    plus lazily built shared analyses (import aliases, child->parent links)
    so individual rules stay cheap.
    """

    path: Path
    display_path: str
    text: str
    tree: ast.Module
    #: Dotted module name (see :func:`~repro.lint.project.module_name_for_path`).
    name: str
    config: LintConfig
    _aliases: dict[str, str] | None = field(default=None, repr=False)
    _parents: dict[ast.AST, ast.AST] | None = field(default=None, repr=False)

    @property
    def aliases(self) -> dict[str, str]:
        """Local name -> fully qualified imported name."""
        if self._aliases is None:
            self._aliases = collect_import_aliases(self.tree)
        return self._aliases

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent AST links."""
        if self._parents is None:
            self._parents = parent_map(self.tree)
        return self._parents

    def matches_fragment(self, fragments: Iterable[str]) -> bool:
        """Whether this module lives under any of the posix path fragments.

        Fixture modules (``tests/lint/fixtures/``) never match: they exist
        to fire the rules.
        """
        return _path_is_exempt(self.path.as_posix(), fragments)


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated module list.

    Directory trees are walked with explicitly sorted directory and file
    names so the output order never depends on filesystem enumeration.
    A path that does not exist is a usage error (:class:`LintError`).
    """
    collected: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIPPED_DIRS)
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        candidates.append(Path(dirpath) / filename)
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def resolve_rules(
    rule_ids: Sequence[str] | None,
) -> list[LintRule | ProjectRule]:
    """Selected rule instances; ``None`` selects every registered rule.

    A repeated id selects its rule once (first-seen order), so it cannot
    double that rule's findings.
    """
    if rule_ids is None:
        selected = available_rules()
    else:
        selected = tuple(dict.fromkeys(rule_ids))
        if not selected:
            raise LintError("--rules selected no rules")
    rules: list[LintRule | ProjectRule] = []
    for rule_id in selected:
        try:
            rules.append(get_rule(rule_id))
        except KeyError as error:
            raise LintError(str(error)) from None
    return rules


# --------------------------------------------------------------------------- #
# suppression application
# --------------------------------------------------------------------------- #
def _apply_suppressions(
    findings: list[Finding],
    suppressions: list[Suppression],
    selected_ids: set[str],
    display_path: str,
) -> list[Finding]:
    """Silence suppressed findings; report suppression hygiene (SUP001)."""
    by_line: dict[tuple[int, str], list[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(
            (suppression.line, suppression.rule_id), []
        ).append(suppression)
    kept: list[Finding] = []
    for finding in findings:
        matches = by_line.get((finding.line, finding.rule))
        if matches:
            for suppression in matches:
                suppression.used = True
        else:
            kept.append(finding)
    known_ids = set(available_rules())
    for suppression in suppressions:
        if suppression.used:
            continue
        if suppression.rule_id not in known_ids:
            message = (
                f"suppression names unknown rule "
                f"{suppression.rule_id or '<empty>'!r}"
            )
        elif suppression.rule_id in selected_ids:
            message = (
                f"unused suppression: allow[{suppression.rule_id}] "
                "did not fire on this line"
            )
        else:
            # The suppressed rule was deselected this run; its suppression
            # cannot be judged, so leave it alone.
            continue
        kept.append(
            Finding(
                path=display_path,
                line=suppression.line,
                column=suppression.column,
                rule="SUP001",
                message=message,
                severity="warning",
            )
        )
    return kept


# --------------------------------------------------------------------------- #
# module loading
# --------------------------------------------------------------------------- #
def _parse_error_finding(display: str, error: SyntaxError) -> Finding:
    line = int(error.lineno or 1)
    # SyntaxError offsets are 1-based; findings use 0-based columns like
    # every AST-anchored rule.
    column = max(int(error.offset or 1) - 1, 0)
    return Finding(
        path=display,
        line=line,
        column=column,
        rule="PAR001",
        message=(
            f"file does not parse: {error.msg} "
            f"(line {line}, column {column})"
        ),
    )


@dataclass
class _LoadedModule:
    """Everything one run needs from one source file."""

    display_path: str
    summary: ModuleSummary | None
    suppressions: list[Suppression]
    findings: list[Finding]
    parse_failed: bool


def _load_module(
    path: Path,
    module_rules: Sequence[LintRule],
    config: LintConfig,
) -> _LoadedModule:
    display = path.as_posix()
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise LintError(f"cannot read {path}: {error}") from None
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        return _LoadedModule(
            display_path=display,
            summary=None,
            suppressions=[],
            findings=[_parse_error_finding(display, error)],
            parse_failed=True,
        )
    module = SourceModule(
        path=path,
        display_path=display,
        text=text,
        tree=tree,
        name=module_name_for_path(path),
        config=config,
    )
    findings: list[Finding] = []
    for rule in module_rules:
        if module.matches_fragment(rule.exempt_fragments):
            continue
        findings.extend(rule.check(module))
    return _LoadedModule(
        display_path=display,
        summary=summarize_module(
            tree,
            module_name=module.name,
            display_path=display,
            is_package=path.stem == "__init__",
        ),
        suppressions=collect_suppressions(text),
        findings=sorted(findings),
        parse_failed=False,
    )


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #
@dataclass
class LintRun:
    """Findings plus run statistics."""

    findings: list[Finding]
    stats: dict[str, Any]


def run_lint(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[str] | None = None,
    config: LintConfig | None = None,
) -> LintRun:
    """Lint files/packages: per-module rules, whole-program rules, stats.

    Parameters
    ----------
    paths:
        Files or directories; directories are walked recursively in sorted
        order collecting ``*.py`` modules.
    rules:
        Rule ids to run; ``None`` runs every registered rule.  Unknown ids
        raise :class:`LintError` (the CLI's usage-error exit code 2).
    config:
        A resolved :class:`~repro.lint.config.LintConfig`; ``None`` loads
        the nearest ``pyproject.toml`` above the first path.
    """
    if config is None:
        anchor = Path(paths[0]) if paths else Path.cwd()
        config = load_config(anchor)
    selected = resolve_rules(rules)
    module_rules = [rule for rule in selected if isinstance(rule, LintRule)]
    project_rules = [
        rule for rule in selected if isinstance(rule, ProjectRule)
    ]
    selected_ids = {rule.rule_id for rule in selected}
    files = collect_files(paths)
    loaded = [_load_module(path, module_rules, config) for path in files]

    summaries: dict[str, ModuleSummary] = {}
    for module in loaded:
        if module.summary is not None:
            summaries.setdefault(module.summary.name, module.summary)
    analysis = ProjectAnalysis(summaries)

    by_path: dict[str, list[Finding]] = {
        module.display_path: list(module.findings) for module in loaded
    }
    for rule in project_rules:
        for finding in rule.check(analysis):
            if _path_is_exempt(finding.path, rule.exempt_fragments):
                continue
            by_path.setdefault(finding.path, []).append(finding)

    findings: list[Finding] = []
    for module in loaded:
        if module.parse_failed:
            findings.extend(by_path[module.display_path])
            continue
        findings.extend(
            _apply_suppressions(
                sorted(by_path[module.display_path]),
                module.suppressions,
                selected_ids,
                module.display_path,
            )
        )
    stats: dict[str, Any] = {"files": len(files)}
    return LintRun(findings=sorted(findings), stats=stats)

