"""Per-rule contract: each rule fires on its violation fixture, stays quiet
on its clean fixture, and is silenced by an inline suppression.

The fixtures live under ``tests/lint/fixtures/`` — a path the walker
explicitly refuses to treat as rule-exempt, so rules whose sanctioned homes
include ``tests/`` still fire there.  Deleting any single rule's
implementation fails the firing test for that rule (the rule id disappears
from the registry and selection becomes a usage error).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import BUILTIN_RULE_IDS, run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: rule id -> number of findings its violation fixture must produce.
EXPECTED_VIOLATIONS = {
    "RNG001": 4,
    "RNG002": 1,
    "ORD001": 4,
    "TEL001": 3,
    "IMP001": 3,
}


def test_every_builtin_rule_has_fixture_expectations():
    assert set(EXPECTED_VIOLATIONS) == set(BUILTIN_RULE_IDS)


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_VIOLATIONS))
def test_rule_fires_on_violation_fixture(rule_id):
    fixture = FIXTURES / f"{rule_id.lower()}_violation.py"
    findings = run_lint([fixture], rules=[rule_id]).findings
    hits = [finding for finding in findings if finding.rule == rule_id]
    assert len(hits) == EXPECTED_VIOLATIONS[rule_id], [
        finding.render() for finding in findings
    ]
    for finding in hits:
        assert finding.path.endswith(f"{rule_id.lower()}_violation.py")
        assert finding.line > 0
        assert finding.severity == "error"


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_VIOLATIONS))
def test_rule_quiet_on_clean_fixture(rule_id):
    fixture = FIXTURES / f"{rule_id.lower()}_clean.py"
    findings = run_lint([fixture], rules=[rule_id]).findings
    assert findings == [], [finding.render() for finding in findings]


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_VIOLATIONS))
def test_inline_suppression_silences_rule(rule_id):
    fixture = FIXTURES / f"{rule_id.lower()}_suppressed.py"
    findings = run_lint([fixture], rules=[rule_id]).findings
    # The violation is silenced AND the suppression counts as used (no
    # SUP001 hygiene warning).
    assert findings == [], [finding.render() for finding in findings]


def test_rules_fire_inside_fixture_dir_despite_tests_exemption():
    # Every built-in rule exempts tests/ paths; the fixture directory is the
    # carved-out exception that keeps these fixtures meaningful.
    findings = run_lint([FIXTURES / "rng001_violation.py"]).findings
    assert any(finding.rule == "RNG001" for finding in findings)
