"""Tests on the public API surface: exports, docstrings, and example scripts."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every module under src/repro, by dotted name (a package by its own name).
ALL_MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "repro").rglob("*.py")
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_subpackage_all_names_resolve(self, module_name):
        # Export integrity: every __all__ name resolves, and every lazy
        # _EXPORTS entry names a submodule that defines the symbol.
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"
        for name, submodule in getattr(module, "_EXPORTS", {}).items():
            target = importlib.import_module(f".{submodule}", module_name)
            assert hasattr(target, name), f"{module_name}._EXPORTS[{name!r}]"

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        package = importlib.import_module("repro")
        missing = []
        for module_info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not (getattr(obj, "__doc__", "") or "").strip():
                undocumented.append(name)
        assert not undocumented, f"undocumented public callables: {undocumented}"


class TestExampleScripts:
    @pytest.mark.parametrize(
        "script",
        ["quickstart", "viral_marketing", "solution_distribution_study", "outbreak_detection"],
    )
    def test_examples_are_importable_and_define_main(self, script):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "examples" / f"{script}.py"
        assert path.exists(), path
        spec = importlib.util.spec_from_file_location(f"example_{script}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
        assert (module.__doc__ or "").strip()
