"""CTX001 and IMP001, pinned against mini-project fixtures.

Each fixture under ``fixtures/projects/`` is a tiny package tree carrying
exactly the violations listed here; counts are exact so a rule that starts
over- or under-firing fails loudly.  IMP001 is a per-module rule, but its
layer table and package-relative imports need a real tree and pyproject.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import (
    BUILTIN_PROJECT_RULE_IDS,
    LintConfig,
    ProjectRule,
    get_rule,
    load_config,
    run_lint,
    summarize_module,
)
from repro.lint.project import ProjectAnalysis
from repro.lint.rules.seams import SEAMS

PROJECTS = Path(__file__).resolve().parent / "fixtures" / "projects"

#: rule id -> (mini-project fixture tree, exact finding count)
EXPECTED = {
    "IMP001": ("layering_bad/minirepro", 1),
    "CTX001": ("seam_drop/miniseam", 1),
}


def _findings(tree: str, *, config: LintConfig | None = None):
    return run_lint([PROJECTS / tree], config=config).findings


def test_every_project_rule_has_fixture_expectations():
    assert set(BUILTIN_PROJECT_RULE_IDS) <= set(EXPECTED)
    for rule_id in BUILTIN_PROJECT_RULE_IDS:
        assert isinstance(get_rule(rule_id), ProjectRule)


class TestLayering:
    def test_numpy_into_stdlib_only_layer_is_exactly_one_finding(self):
        # The fixture ships its own pyproject.toml; config auto-discovery
        # must find it above the linted tree.
        findings = _findings("layering_bad/minirepro")
        assert [f.rule for f in findings] == ["IMP001"]
        finding = findings[0]
        assert finding.path.endswith("minirepro/lint/core.py")
        assert "'minirepro.lint'" in finding.message
        assert "'numpy'" in finding.message

    def test_no_layers_declared_means_no_constraints(self):
        findings = _findings("layering_bad/minirepro", config=LintConfig())
        assert [f.rule for f in findings] == []

    def test_longest_prefix_wins_and_intra_layer_is_free(self):
        config = LintConfig(
            layers={
                "minirepro": [],
                "minirepro.lint": ["json", "numpy"],
                "minirepro.obs": ["minirepro.lint"],
            }
        )
        # With numpy allowed for the .lint sublayer, the tree is clean: the
        # root "minirepro" layer must not claim the sublayer's modules.
        assert _findings("layering_bad/minirepro", config=config) == []

    def test_repo_layer_dag_is_declared_and_enforced(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert load_config(src).layers.get("repro.lint") == ()
        assert run_lint([src], rules=["IMP001"]).findings == []


class TestSeamThreading:
    def test_dropped_telemetry_forward_is_exactly_one_finding(self):
        findings = _findings("seam_drop/miniseam", config=LintConfig())
        assert [f.rule for f in findings] == ["CTX001"]
        finding = findings[0]
        assert finding.path.endswith("miniseam/driver.py")
        assert "'telemetry'" in finding.message
        assert "miniseam.core.emit" in finding.message

    def _one_file_findings(self, caller_body: str, *, seam: str = "telemetry"):
        sources = {
            "pkg.core": f"def emit(values, *, {seam}=None):\n    return values\n",
            "pkg.driver": "from pkg.core import emit\n" + caller_body,
        }
        summaries = {
            name: summarize_module(
                ast.parse(source),
                module_name=name,
                display_path=name.replace(".", "/") + ".py",
                is_package=False,
            )
            for name, source in sources.items()
        }
        analysis = ProjectAnalysis(summaries)
        rule = get_rule("CTX001")
        return list(rule.check(analysis))

    def test_positional_forward_counts(self):
        findings = self._one_file_findings(
            "def run(values, telemetry=None):\n"
            "    return emit(values, telemetry=telemetry)\n"
        )
        assert findings == []

    def test_star_kwargs_silences_the_rule(self):
        findings = self._one_file_findings(
            "def run(values, *, telemetry=None, **kw):\n"
            "    return emit(values, **kw)\n"
        )
        assert findings == []

    def test_caller_without_seam_is_ignored(self):
        findings = self._one_file_findings(
            "def run(values):\n    return emit(values)\n"
        )
        assert findings == []

    @pytest.mark.parametrize("seam", SEAMS)
    def test_every_tracked_seam_drop_is_flagged(self, seam):
        findings = self._one_file_findings(
            f"def run(values, *, {seam}=None):\n    return emit(values)\n",
            seam=seam,
        )
        assert [(f.path, f.line) for f in findings] == [("pkg/driver.py", 3)]
        assert f"accepts seam {seam!r}" in findings[0].message

    def test_untracked_parameter_drop_is_not_a_seam(self):
        assert "seed" not in SEAMS
        findings = self._one_file_findings(
            "def run(values, *, seed=None):\n    return emit(values)\n"
        )
        assert findings == []


class TestSuppressionParity:
    def test_project_findings_honour_line_suppressions(self, tmp_path):
        package = tmp_path / "minisup"
        package.mkdir()
        (package / "__init__.py").write_text(
            '"""Throwaway package."""\n', encoding="utf-8"
        )
        (package / "core.py").write_text(
            "def emit(values, *, telemetry=None):\n    return values\n",
            encoding="utf-8",
        )
        (package / "driver.py").write_text(
            "from .core import emit\n"
            "\n"
            "\n"
            "def run(values, *, telemetry=None):\n"
            "    # repro-lint: allow[CTX001] seam consumed on purpose here\n"
            "    return emit(values)\n",
            encoding="utf-8",
        )
        findings = run_lint([package], config=LintConfig()).findings
        assert [f.rule for f in findings] == []
