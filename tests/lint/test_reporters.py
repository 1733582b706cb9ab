"""Reporter contract: text rendering and the versioned JSON document."""

from __future__ import annotations

import json

import pytest

from repro.lint import Finding, JSON_REPORT_VERSION, render_json, render_text

SAMPLE = [
    Finding(
        path="src/repro/x.py",
        line=3,
        column=4,
        rule="RNG001",
        message="ambient randomness",
    ),
    Finding(
        path="src/repro/y.py",
        line=9,
        column=0,
        rule="SUP001",
        message="unused suppression",
        severity="warning",
    ),
]


class TestTextReporter:
    def test_no_findings(self):
        assert render_text([]) == "repro lint: no findings\n"

    def test_lines_and_summary(self):
        text = render_text(SAMPLE)
        assert "src/repro/x.py:3:4: RNG001 ambient randomness" in text
        assert text.endswith("repro lint: 1 error(s), 1 warning(s)\n")


class TestJsonReporter:
    def test_records_carry_severity(self):
        records = json.loads(render_json(SAMPLE))["findings"]
        assert [record["severity"] for record in records] == ["error", "warning"]

    def test_document_shape(self):
        document = json.loads(render_json(SAMPLE))
        assert document["version"] == JSON_REPORT_VERSION
        assert document["counts"] == {"RNG001": 1, "SUP001": 1}
        assert {record["rule"] for record in document["findings"]} == {
            "RNG001",
            "SUP001",
        }


class TestFindingRecord:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(path="p", line=1, column=0, rule="R", message="m", severity="nope")

    def test_ordering_is_by_location_then_rule(self):
        shuffled = sorted(SAMPLE, reverse=True)
        assert sorted(shuffled) == SAMPLE


class TestParseErrorReporting:
    """PAR001 carries the syntax error's line and column in both formats."""

    def _par001_finding(self):
        from pathlib import Path

        from repro.lint import run_lint

        fixture = Path(__file__).resolve().parent / "fixtures" / "par001_offset.py"
        return run_lint([fixture]).findings[0]

    def test_text_report_includes_column(self):
        finding = self._par001_finding()
        assert ":4:10: PAR001" in render_text([finding])

    def test_json_report_includes_column(self):
        finding = self._par001_finding()
        document = json.loads(render_json([finding]))
        (record,) = document["findings"]
        assert (record["line"], record["column"]) == (4, 10)


class TestStatsEmbedding:
    def test_stats_key_present(self):
        stats = {"files": 2, "cache_enabled": False}
        document = json.loads(render_json(SAMPLE, stats=stats))
        assert document["stats"] == stats

    def test_stats_absent_by_default(self):
        assert "stats" not in json.loads(render_json(SAMPLE))
