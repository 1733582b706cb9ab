"""CLI contract: exit codes 0/1/2, formats, rule selection, entry points."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_clean_file_exits_zero(self):
        code, out, _ = run_cli(str(FIXTURES / "rng001_clean.py"))
        assert code == EXIT_CLEAN
        assert "no findings" in out

    def test_findings_exit_one(self):
        code, out, _ = run_cli(str(FIXTURES / "rng001_violation.py"))
        assert code == EXIT_FINDINGS
        assert "RNG001" in out

    def test_missing_path_exits_two(self):
        code, _, err = run_cli("definitely/not/here.py")
        assert code == EXIT_USAGE
        assert "no such file" in err

    def test_unknown_rule_exits_two(self):
        code, _, err = run_cli("--rules", "NOPE999", str(FIXTURES))
        assert code == EXIT_USAGE
        assert "NOPE999" in err

    def test_bad_flag_exits_two(self, capsys):
        assert main(["--format", "xml", str(FIXTURES)]) == EXIT_USAGE
        capsys.readouterr()  # swallow argparse's stderr output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--format", "dot"],
            ["--cache"],
            ["--cache-dir", "lint-cache"],
            ["--config", "pyproject.toml"],
            ["--no-config"],
            ["--graph", "imports"],
        ],
        ids=["format-dot", "cache", "cache-dir", "config", "no-config", "graph"],
    )
    def test_removed_options_exit_two(self, capsys, flags):
        assert main([*flags, str(FIXTURES / "rng001_clean.py")]) == EXIT_USAGE
        assert flags[0] in capsys.readouterr().err

    def test_help_lists_only_text_and_json_formats(self, capsys):
        assert main(["--help"]) == EXIT_CLEAN
        help_text = capsys.readouterr().out
        assert "{text,json}" in help_text
        assert "--cache" not in help_text
        assert "--config" not in help_text
        assert "dot" not in help_text


class TestSelectionAndFormats:
    def test_rules_selection_comma_and_repeat(self):
        target = str(FIXTURES / "rng001_violation.py")
        code, out, _ = run_cli("--rules", "ORD001,TEL001", target)
        assert (code, "RNG001" in out) == (EXIT_CLEAN, False)
        code, out, _ = run_cli("--rules", "ORD001", "--rules", "RNG001", target)
        assert code == EXIT_FINDINGS
        assert "RNG001" in out
        # A repeated id selects its rule once: findings are not doubled.
        _, once, _ = run_cli("--rules", "RNG001", target)
        _, twice, _ = run_cli("--rules", "RNG001,RNG001", "--rules", "RNG001", target)
        assert twice == once
        assert once.count("RNG001 ") == 4

    @pytest.mark.parametrize(
        "selection",
        [
            ["--rules", " RNG001 , RNG001 "],
            ["--rules", "RNG001,ORD001,RNG001"],
            ["--rules", "ORD001", "--rules", "RNG001,ORD001", "--rules", "RNG001"],
        ],
        ids=["spaced", "interleaved", "across-flags"],
    )
    def test_repeated_ids_report_each_finding_once(self, selection):
        target = str(FIXTURES / "rng001_violation.py")
        code, out, _ = run_cli("--format", "json", *selection, target)
        assert code == EXIT_FINDINGS
        records = json.loads(out)["findings"]
        assert [record["rule"] for record in records] == ["RNG001"] * 4
        assert len({(record["line"], record["column"]) for record in records}) == 4

    def test_json_format_lists_findings(self):
        code, out, _ = run_cli("--format", "json", str(FIXTURES / "rng001_violation.py"))
        assert code == EXIT_FINDINGS
        document = json.loads(out)
        assert {record["rule"] for record in document["findings"]} == {"RNG001"}
        assert len(document["findings"]) == 4
        assert document["counts"] == {"RNG001": 4}

    def test_list_rules(self):
        code, out, _ = run_cli("--list-rules")
        assert code == EXIT_CLEAN
        for rule_id in ("RNG001", "RNG002", "ORD001", "TEL001"):
            assert rule_id in out
        assert "PAR001" in out  # framework findings documented too


class TestEntryPoints:
    def test_python_dash_m_runs_without_numpy(self):
        # ``python -m repro.lint`` must work in a bare interpreter: assert
        # the whole run never imports numpy.
        script = (
            "import sys, runpy\n"
            f"sys.argv = ['repro.lint', {str(FIXTURES / 'rng001_clean.py')!r}]\n"
            "try:\n"
            "    runpy.run_module('repro.lint', run_name='__main__')\n"
            "except SystemExit as exit_:\n"
            "    assert exit_.code == 0, exit_.code\n"
            "assert 'numpy' not in sys.modules, 'lint pulled in numpy'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr

    def test_python_dash_m_exit_code_on_findings(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(FIXTURES / "rng001_violation.py"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == EXIT_FINDINGS
        assert "RNG001" in result.stdout

    def test_repro_cli_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(FIXTURES / "rng001_clean.py")]) == EXIT_CLEAN
        assert repro_main(["lint", str(FIXTURES / "rng001_violation.py")]) == EXIT_FINDINGS
        captured = capsys.readouterr()
        assert "RNG001" in captured.out

    def test_repro_cli_help_mentions_lint(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "lint" in capsys.readouterr().out


class TestListRules:
    def test_list_rules_marks_project_rules(self):
        code, out, _ = run_cli("--list-rules")
        assert code == EXIT_CLEAN
        for rule_id, is_project in (("IMP001", False), ("CTX001", True)):
            line = next(l for l in out.splitlines() if l.startswith(rule_id))
            assert ("[project]" in line) == is_project
