"""Command-line front end for the determinism linter.

Reached two ways with identical behaviour:

* ``repro lint [PATHS] [--rules ...] [--format ...]`` (the main CLI), and
* ``python -m repro.lint ...`` — importable without numpy, so CI can run it
  in a bare interpreter before any heavy dependency is installed.

Configuration comes from the nearest ``pyproject.toml`` at or above the
first path: its ``[tool.repro-lint]`` table (one key, ``layers``, declares
the IMP001 layer DAG).

Exit-code contract (stable, tested):

* ``0`` — linted clean, no findings;
* ``1`` — at least one finding (of any severity);
* ``2`` — usage error: unknown rule id, missing path, bad flag, bad config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO

from .errors import LintError
from .registry import FRAMEWORK_RULE_IDS, ProjectRule, available_rules, get_rule
from .reporters import render_json, render_text
from .walker import run_lint

__all__ = ["EXIT_CLEAN", "EXIT_FINDINGS", "EXIT_USAGE", "build_parser", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Statically check the repository's determinism contracts (seeded "
            "randomness, iteration order, counter naming, import layering) "
            "plus the whole-program seam-threading contract."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "files or directories to lint (default: src/ when it exists, "
            "else the current directory)"
        ),
    )
    parser.add_argument(
        "--rules",
        action="append",
        metavar="ID[,ID...]",
        help="run only these rule ids (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule ids with summaries and exit",
    )
    return parser


def _selected_rules(values: Sequence[str] | None) -> list[str] | None:
    if values is None:
        return None
    selected: list[str] = []
    for value in values:
        selected.extend(part.strip() for part in value.split(",") if part.strip())
    return selected


def _default_paths() -> list[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def _list_rules(stream: TextIO) -> None:
    for rule_id in available_rules():
        rule = get_rule(rule_id)
        marker = "error" if rule.severity == "error" else rule.severity
        kind = "  [project]" if isinstance(rule, ProjectRule) else ""
        stream.write(f"{rule_id}  [{marker}]{kind}  {rule.summary}\n")
    framework = ", ".join(FRAMEWORK_RULE_IDS)
    stream.write(
        f"(framework findings, not selectable via --rules: {framework})\n"
    )


def main(
    argv: Sequence[str] | None = None,
    *,
    prog: str = "repro lint",
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser(prog)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse uses exit code 2 for usage errors
        return int(exit_.code or 0)
    if args.list_rules:
        _list_rules(out)
        return EXIT_CLEAN
    paths = args.paths or _default_paths()
    try:
        run = run_lint(paths, rules=_selected_rules(args.rules))
    except LintError as error:
        err.write(f"{prog}: error: {error}\n")
        return EXIT_USAGE
    if args.format == "json":
        out.write(render_json(run.findings, stats=run.stats))
    else:
        out.write(render_text(run.findings))
    return EXIT_FINDINGS if run.findings else EXIT_CLEAN
