"""Modern-syntax robustness: match statements and PEP 695 constructs.

The linter must parse current-Python syntax without spurious findings —
``match`` statements everywhere, and on 3.12+ the PEP 695 ``type`` alias
statement and inline generic parameters.
"""

from __future__ import annotations

import ast
import sys

import pytest

from repro.lint import LintConfig, run_lint, summarize_module

MATCH_SOURCE = '''\
"""Module using structural pattern matching."""


def dispatch(command, *, rng=None):
    match command:
        case {"kind": "roll", "sides": sides}:
            return int(rng.integers(sides)) if rng is not None else sides
        case [first, *rest]:
            return (first, len(rest))
        case str() as name:
            return name
        case _:
            return None
'''

PEP695_SOURCE = '''\
"""Module using PEP 695 type statements and inline generics."""

type Pair = tuple[int, int]


class Box[T]:
    def __init__(self, item: T) -> None:
        self.item = item


def first[T](items: list[T]) -> T:
    return items[0]
'''


def _lint_source(tmp_path, source):
    target = tmp_path / "modern.py"
    target.write_text(source, encoding="utf-8")
    return run_lint([target], config=LintConfig()).findings


def test_match_statement_lints_clean(tmp_path):
    assert _lint_source(tmp_path, MATCH_SOURCE) == []


def test_match_statement_summary_sees_the_function(tmp_path):
    summary = summarize_module(
        ast.parse(MATCH_SOURCE),
        module_name="modern",
        display_path="modern.py",
        is_package=False,
    )
    info = summary.functions["dispatch"]
    assert "rng" in info.parameters


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="PEP 695 syntax needs Python 3.12+"
)
def test_pep695_lints_clean(tmp_path):
    assert _lint_source(tmp_path, PEP695_SOURCE) == []


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="PEP 695 syntax needs Python 3.12+"
)
def test_pep695_summary_records_functions(tmp_path):
    summary = summarize_module(
        ast.parse(PEP695_SOURCE),
        module_name="modern",
        display_path="modern.py",
        is_package=False,
    )
    qualnames = set(summary.functions)
    assert {"Box.__init__", "first"} <= qualnames


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="on 3.11 PEP 695 must fail as a clean PAR001, not crash",
)
def test_pep695_on_old_python_is_par001(tmp_path):
    target = tmp_path / "modern.py"
    target.write_text(PEP695_SOURCE, encoding="utf-8")
    findings = run_lint([target], config=LintConfig()).findings
    assert [f.rule for f in findings] == ["PAR001"]
