"""The gate: the linter must run clean on the package that ships it.

Every finding in ``src/repro`` is either fixed or carries an inline
suppression with a reason — this test is what turns the linter from a
suggestion into an invariant (and it doubles as the regression pin for the
determinism fixes the first self-run forced: any revert re-fires the rule).
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.lint import EXIT_CLEAN, run_lint
from repro.lint.cli import main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_lints_clean():
    findings = run_lint([SRC]).findings
    assert findings == [], "\n" + "\n".join(
        finding.render() for finding in findings
    )


def test_cli_self_run_exits_clean():
    out = io.StringIO()
    assert main([str(SRC)], stdout=out) == EXIT_CLEAN
    assert "no findings" in out.getvalue()


def test_no_unused_suppressions_in_tree():
    # Suppression hygiene is part of the gate: SUP001 findings (warnings)
    # would show up above, but make the intent explicit.
    assert [f for f in run_lint([SRC]).findings if f.rule == "SUP001"] == []
