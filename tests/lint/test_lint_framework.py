"""Framework-level behaviour: registry, suppressions, walker, parse errors."""

from __future__ import annotations

import os
import tokenize
from pathlib import Path

import pytest

from repro.lint import (
    BUILTIN_PROJECT_RULE_IDS,
    BUILTIN_RULE_IDS,
    FRAMEWORK_RULE_IDS,
    SEVERITIES,
    LintError,
    LintRule,
    ProjectRule,
    available_rules,
    collect_files,
    collect_suppressions,
    get_rule,
    run_lint,
)
from repro.lint.walker import resolve_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = FIXTURES.parents[2]

ALL_RULE_IDS = sorted(BUILTIN_RULE_IDS | BUILTIN_PROJECT_RULE_IDS)


class TestRegistry:
    def test_builtin_rules_all_registered(self):
        assert BUILTIN_RULE_IDS <= set(available_rules())

    def test_registry_holds_exactly_the_builtin_rules(self):
        assert set(available_rules()) == BUILTIN_RULE_IDS | BUILTIN_PROJECT_RULE_IDS

    def test_unknown_rule_lookup_names_available(self):
        with pytest.raises(KeyError, match="RNG001"):
            get_rule("NOPE999")

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_is_well_formed_under_its_own_id(self, rule_id):
        rule = get_rule(rule_id)
        assert rule.rule_id == rule_id
        assert rule.summary
        assert rule.severity in SEVERITIES
        kind = ProjectRule if rule_id in BUILTIN_PROJECT_RULE_IDS else LintRule
        assert isinstance(rule, kind)

    @pytest.mark.parametrize("rule_id", FRAMEWORK_RULE_IDS)
    def test_framework_ids_are_not_selectable(self, rule_id):
        assert rule_id not in available_rules()
        with pytest.raises(LintError, match=rule_id):
            run_lint([FIXTURES / "rng001_clean.py"], rules=[rule_id]).findings


class TestResolveRules:
    def test_none_selects_every_rule_in_id_order(self):
        assert [rule.rule_id for rule in resolve_rules(None)] == ALL_RULE_IDS

    def test_repeated_ids_keep_first_seen_order(self):
        selected = resolve_rules(["TEL001", "RNG001", "TEL001", "CTX001", "RNG001"])
        assert [rule.rule_id for rule in selected] == ["TEL001", "RNG001", "CTX001"]

    def test_repeated_id_does_not_double_findings(self):
        target = FIXTURES / "rng001_violation.py"
        once = run_lint([target], rules=["RNG001"]).findings
        assert len(once) == 4
        assert run_lint([target], rules=["RNG001", "RNG001", "RNG001"]).findings == once


class TestSuppressions:
    def test_comment_parsing_finds_rule_ids(self):
        text = "x = 1  # repro-lint: allow[RNG001, ORD001] reason\n"
        parsed = collect_suppressions(text)
        assert [(s.line, s.rule_id) for s in parsed] == [
            (1, "RNG001"),
            (1, "ORD001"),
        ]

    def test_suppression_inside_string_is_not_parsed(self, monkeypatch):
        # The marker text is present, so this goes through the tokenizer,
        # which sees a string literal, not a comment.
        tokenized = []
        real = tokenize.generate_tokens

        def spy(readline):
            tokenized.append(readline)
            return real(readline)

        monkeypatch.setattr(tokenize, "generate_tokens", spy)
        text = 'x = "# repro-lint: allow[RNG001]"\n'
        assert collect_suppressions(text) == []
        assert len(tokenized) == 1

    def test_text_without_marker_is_never_tokenized(self, monkeypatch):
        def refuse(readline):
            raise AssertionError("tokenized text that holds no repro-lint marker")

        monkeypatch.setattr(tokenize, "generate_tokens", refuse)
        assert collect_suppressions("x = 1  # allow[RNG001] no marker\n") == []

    def test_unused_suppression_reported(self, tmp_path):
        target = tmp_path / "unused.py"
        target.write_text(
            "value = 1  # repro-lint: allow[RNG001] nothing to silence\n",
            encoding="utf-8",
        )
        findings = run_lint([target]).findings
        assert [finding.rule for finding in findings] == ["SUP001"]
        assert "unused suppression" in findings[0].message
        assert findings[0].severity == "warning"

    def test_unknown_rule_suppression_reported(self, tmp_path):
        target = tmp_path / "unknown.py"
        target.write_text(
            "value = 1  # repro-lint: allow[BOGUS42]\n", encoding="utf-8"
        )
        findings = run_lint([target]).findings
        assert [finding.rule for finding in findings] == ["SUP001"]
        assert "unknown rule" in findings[0].message

    def test_deselected_rule_suppression_left_alone(self, tmp_path):
        target = tmp_path / "deselected.py"
        target.write_text(
            "import random\n"
            "t = random.random()  # repro-lint: allow[RNG001] legit elsewhere\n",
            encoding="utf-8",
        )
        # RNG001 not selected: its suppression cannot be judged, no SUP001.
        assert run_lint([target], rules=["ORD001"]).findings == []

    def test_empty_allow_body_reported_as_unknown(self, tmp_path):
        target = tmp_path / "empty.py"
        target.write_text("value = 1  # repro-lint: allow[] why\n", encoding="utf-8")
        findings = run_lint([target]).findings
        assert [(f.rule, f.line) for f in findings] == [("SUP001", 1)]
        assert "'<empty>'" in findings[0].message

    def test_only_the_unused_id_of_a_list_is_reported(self, tmp_path):
        target = tmp_path / "partial.py"
        target.write_text(
            "import random\n"
            "t = random.random()  # repro-lint: allow[RNG001, ORD001] one applies\n",
            encoding="utf-8",
        )
        findings = run_lint([target]).findings
        assert [(f.rule, f.line) for f in findings] == [("SUP001", 2)]
        assert "allow[ORD001]" in findings[0].message

    def test_trailing_standalone_allow_is_reported_unused(self, tmp_path):
        target = tmp_path / "trailing.py"
        target.write_text(
            "value = 1\n# repro-lint: allow[RNG001] nothing follows\n",
            encoding="utf-8",
        )
        findings = run_lint([target]).findings
        assert [(f.rule, f.line) for f in findings] == [("SUP001", 2)]
        assert "unused suppression" in findings[0].message


class TestWalker:
    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintError, match="no such file"):
            run_lint(["definitely/not/here.py"])

    def test_unknown_rule_id_is_usage_error(self):
        with pytest.raises(LintError, match="NOPE999"):
            run_lint([FIXTURES], rules=["NOPE999"])

    def test_empty_rule_selection_is_usage_error(self):
        with pytest.raises(LintError, match="no rules"):
            run_lint([FIXTURES], rules=[])

    def test_collect_files_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("b = 1\n", encoding="utf-8")
        (tmp_path / "a.py").write_text("a = 1\n", encoding="utf-8")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("c = 1\n", encoding="utf-8")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("", encoding="utf-8")
        files = collect_files([tmp_path, tmp_path / "a.py"])
        assert [path.name for path in files] == ["a.py", "b.py", "c.py"]

    def test_syntax_error_becomes_par001(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        findings = run_lint([target]).findings
        assert [finding.rule for finding in findings] == ["PAR001"]
        assert "does not parse" in findings[0].message

    def test_findings_sorted_by_location(self):
        findings = run_lint([FIXTURES / "rng001_violation.py"]).findings
        assert findings == sorted(findings)


def _located(findings):
    """Findings keyed by absolute path, so two spellings of one file compare equal."""
    return [
        (os.path.abspath(finding.path), finding.line, finding.column, finding.rule)
        for finding in findings
    ]


class TestPathSpelling:
    """Exemptions depend on the file, not on how its path is written."""

    @pytest.mark.parametrize(
        "relative", ["tests/diffusion/test_bitparallel.py", "tests/lint/fixtures"]
    )
    def test_relative_and_absolute_paths_agree(self, monkeypatch, relative):
        monkeypatch.chdir(REPO_ROOT)
        spelled = _located(run_lint([relative]).findings)
        absolute = _located(run_lint([REPO_ROOT / relative]).findings)
        assert spelled == absolute

    def test_test_modules_are_exempt_when_spelled_relative(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert run_lint(["tests/diffusion/test_bitparallel.py"]).findings == []

    def test_tests_directory_above_the_root_exempts_nothing(self, tmp_path, monkeypatch):
        # A project checked out under some "tests/" directory is linted in full.
        project = tmp_path / "tests" / "proj"
        (project / "pkg").mkdir(parents=True)
        (project / "pyproject.toml").write_text("[tool.repro-lint]\n", encoding="utf-8")
        violation = (FIXTURES / "rng001_violation.py").read_text(encoding="utf-8")
        (project / "pkg" / "mod.py").write_text(violation, encoding="utf-8")
        expected = [f.rule for f in run_lint([FIXTURES / "rng001_violation.py"]).findings]
        assert len(expected) == 4
        monkeypatch.chdir(project)
        for spelling in ("pkg/mod.py", project / "pkg" / "mod.py"):
            assert [f.rule for f in run_lint([spelling]).findings] == expected

    def test_pyproject_without_table_anchors_the_root(self, tmp_path, monkeypatch):
        # The nearest pyproject is the root even without a [tool.repro-lint]
        # table, so linting from above it does not see its "tests/" parent.
        project = tmp_path / "tests" / "proj"
        (project / "pkg").mkdir(parents=True)
        (project / "pyproject.toml").write_text('[project]\nname = "proj"\n', encoding="utf-8")
        violation = (FIXTURES / "rng001_violation.py").read_text(encoding="utf-8")
        (project / "pkg" / "mod.py").write_text(violation, encoding="utf-8")
        for directory, spelling in ((tmp_path, "tests/proj/pkg/mod.py"), (project, "pkg/mod.py")):
            monkeypatch.chdir(directory)
            assert len(run_lint([spelling]).findings) == 4

    @pytest.mark.parametrize("spelling", ["relative", "absolute"])
    def test_fixtures_fire_under_both_spellings(self, monkeypatch, spelling):
        monkeypatch.chdir(REPO_ROOT)
        root = Path("tests/lint/fixtures") if spelling == "relative" else FIXTURES
        for rule_id in ("RNG001", "RNG002", "ORD001", "TEL001"):
            target = root / f"{rule_id.lower()}_violation.py"
            assert rule_id in {finding.rule for finding in run_lint([target]).findings}


class TestStandaloneAllow:
    def test_standalone_comment_covers_next_code_line(self, tmp_path):
        target = tmp_path / "standalone.py"
        target.write_text(
            "import random\n"
            "# repro-lint: allow[RNG001] the reason would not fit inline\n"
            "t = random.random()\n",
            encoding="utf-8",
        )
        assert run_lint([target], rules=["RNG001"]).findings == []

    def test_standalone_comment_block_covers_one_statement_only(self, tmp_path):
        target = tmp_path / "standalone.py"
        target.write_text(
            "import random\n"
            "# repro-lint: allow[RNG001] covers only the next line\n"
            "t = random.random()\n"
            "u = random.random()\n",
            encoding="utf-8",
        )
        findings = run_lint([target], rules=["RNG001"]).findings
        assert [finding.line for finding in findings] == [4]


class TestParseErrorOffsets:
    def test_par001_fixture_pins_line_and_column(self):
        findings = run_lint([FIXTURES / "par001_offset.py"]).findings
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.column) == ("PAR001", 4, 10)
        assert "line 4, column 10" in finding.message

    def test_par001_render_includes_column(self):
        finding = run_lint([FIXTURES / "par001_offset.py"]).findings[0]
        assert finding.render().split(" ")[0].endswith("par001_offset.py:4:10:")
