"""Whole-program analysis core: module names, summaries, call graph."""

from __future__ import annotations

import ast
import time
from pathlib import Path

from repro.lint import ModuleSummary, run_lint, summarize_module
from repro.lint.project import ProjectAnalysis, module_name_for_path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _summary(name: str, source: str, *, is_package: bool = False) -> ModuleSummary:
    return summarize_module(
        ast.parse(source),
        module_name=name,
        display_path=name.replace(".", "/") + ".py",
        is_package=is_package,
    )


def _analysis(sources: dict[str, str], **packages) -> ProjectAnalysis:
    summaries = {
        name: _summary(name, source, is_package=packages.get(name, False))
        for name, source in sources.items()
    }
    return ProjectAnalysis(summaries)


class TestModuleNames:
    def test_source_file_inside_package(self):
        assert module_name_for_path(SRC / "lint" / "walker.py") == "repro.lint.walker"

    def test_package_init_maps_to_package(self):
        assert module_name_for_path(SRC / "lint" / "__init__.py") == "repro.lint"

    def test_bare_file_outside_package(self, tmp_path):
        target = tmp_path / "loose.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert module_name_for_path(target) == "loose"


class TestSummaries:
    def test_aliases(self):
        summary = _summary(
            "pkg.mod",
            "import numpy as np\n"
            "from pkg import other\n"
            "from . import sibling\n",
        )
        assert summary.aliases["np"] == "numpy"
        assert summary.aliases["other"] == "pkg.other"
        assert summary.aliases["sibling"] == "pkg.sibling"

    def test_relative_imports_resolve_against_the_package(self):
        summary = _summary(
            "pkg.sub.mod",
            "from . import sibling\n"
            "from .. import uncle\n"
            "from ..core import emit as send\n"
            "from .... import beyond\n",
        )
        assert summary.aliases == {
            "sibling": "pkg.sub.sibling",
            "uncle": "pkg.uncle",
            "send": "pkg.core.emit",
        }

    def test_a_plain_import_never_displaces_an_earlier_binding(self):
        summary = _summary(
            "pkg.mod",
            "from pkg.core import engine\n"
            "import engine\n"
            "import numpy as np\n"
            "import np.linalg\n"
            "import os\n"
            "import numpy.random as os\n",
        )
        assert summary.aliases == {
            "engine": "pkg.core.engine",
            "np": "numpy",
            "os": "numpy.random",
        }

    def test_function_local_imports_are_collected(self):
        summary = _summary(
            "pkg.mod",
            "def late():\n    import numpy as np\n    return np\n",
        )
        assert summary.aliases == {"np": "numpy"}

    def test_functions_methods_and_calls(self):
        summary = _summary(
            "pkg.mod",
            "def helper(x, *, rng=None):\n"
            "    return x\n"
            "class Thing:\n"
            "    def method(self, *, rng=None):\n"
            "        return helper(1, rng=rng)\n",
        )
        names = sorted(summary.functions)
        assert names == ["Thing.method", "helper"]
        method = summary.functions["Thing.method"]
        assert method.is_method
        assert [call.callee for call in method.calls] == ["helper"]
        assert "rng" in method.calls[0].keywords


class TestCallGraph:
    def test_resolves_cross_module_function(self):
        analysis = _analysis(
            {
                "pkg.core": "def emit(values, *, telemetry=None):\n    return values\n",
                "pkg.driver": "from pkg.core import emit\n",
            }
        )
        resolved = analysis.resolve_callable("pkg.driver", "emit")
        assert resolved is not None
        module, info = resolved
        assert (module.name, info.qualname) == ("pkg.core", "emit")

    def test_resolves_constructor_to_init(self):
        analysis = _analysis(
            {
                "pkg.core": (
                    "class Engine:\n"
                    "    def __init__(self, *, jobs=None):\n"
                    "        self.jobs = jobs\n"
                ),
                "pkg.driver": "from pkg.core import Engine\n",
            }
        )
        resolved = analysis.resolve_callable("pkg.driver", "Engine")
        assert resolved is not None
        assert resolved[1].qualname == "Engine.__init__"

    def test_resolves_through_package_reexport(self):
        analysis = _analysis(
            {
                "pkg": "from pkg.core import emit\n",
                "pkg.core": "def emit(values, *, rng=None):\n    return values\n",
                "pkg.driver": "import pkg\n",
            },
            **{"pkg": True},
        )
        resolved = analysis.resolve_callable("pkg.driver", "pkg.emit")
        assert resolved is not None
        assert resolved[0].name == "pkg.core"

    def test_unresolvable_external_call_is_none(self):
        analysis = _analysis({"pkg.driver": "import os\n"})
        assert analysis.resolve_callable("pkg.driver", "os.getcwd") is None


class TestPerformance:
    def test_whole_program_pass_budget(self):
        started = time.perf_counter()
        cold = run_lint([SRC])
        cold_elapsed = time.perf_counter() - started
        assert cold.findings == []
        assert cold_elapsed < 5.0, f"cold pass took {cold_elapsed:.2f}s"
