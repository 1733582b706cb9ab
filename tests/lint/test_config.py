"""[tool.repro-lint] config loading: discovery and validation."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.lint import (
    EXIT_CLEAN,
    EXIT_USAGE,
    LintError,
    load_config,
)
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Declares the bare module ``clocky`` a stdlib-only layer.
_STDLIB_ONLY_CLOCKY = '[tool.repro-lint.layers]\nclocky = []\n'


def _write_pyproject(tmp_path: Path, body: str) -> Path:
    target = tmp_path / "pyproject.toml"
    target.write_text(body, encoding="utf-8")
    return target


class TestLoadConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.layers == {}
        assert config.source is None

    def test_parses_all_known_keys(self, tmp_path):
        _write_pyproject(
            tmp_path,
            '[tool.repro-lint.layers]\n'
            '"pkg.lint" = []\n'
            '"pkg.obs" = ["pkg.lint"]\n',
        )
        config = load_config(tmp_path)
        assert config.layers == {"pkg.lint": (), "pkg.obs": ("pkg.lint",)}
        assert config.source is not None

    def test_discovery_walks_upward(self, tmp_path):
        _write_pyproject(tmp_path, _STDLIB_ONLY_CLOCKY)
        nested = tmp_path / "deep" / "deeper"
        nested.mkdir(parents=True)
        assert load_config(nested).layers == {"clocky": ()}

    def test_pyproject_without_table_gives_defaults(self, tmp_path):
        _write_pyproject(tmp_path, '[tool.other]\nx = 1\n')
        assert load_config(tmp_path).layers == {}

    def test_unknown_key_is_usage_error(self, tmp_path):
        _write_pyproject(tmp_path, '[tool.repro-lint]\nselct = ["RNG001"]\n')
        with pytest.raises(LintError, match="unknown .* selct"):
            load_config(tmp_path)

    def test_removed_keys_are_usage_errors(self, tmp_path):
        for key in ("select", "exclude", "seams"):
            _write_pyproject(tmp_path, f'[tool.repro-lint]\n{key} = ["rng"]\n')
            with pytest.raises(LintError, match=f"unknown .* {key}"):
                load_config(tmp_path)

    def test_bad_value_shape_is_usage_error(self, tmp_path):
        _write_pyproject(
            tmp_path, '[tool.repro-lint.layers]\n"pkg.lint" = "stdlib"\n'
        )
        with pytest.raises(LintError, match="list of strings"):
            load_config(tmp_path)

    def test_bad_layers_shape_is_usage_error(self, tmp_path):
        _write_pyproject(
            tmp_path, '[tool.repro-lint]\nlayers = ["pkg.lint"]\n'
        )
        with pytest.raises(LintError, match="layers"):
            load_config(tmp_path)


class TestCliConfigDiscovery:
    def _violation(self, tmp_path: Path) -> Path:
        # Clean under no config; an IMP001 finding once ``clocky`` is a
        # stdlib-only layer.
        target = tmp_path / "clocky.py"
        target.write_text("import numpy\n", encoding="utf-8")
        return target

    def test_nearest_pyproject_applies(self, tmp_path):
        pyproject = _write_pyproject(tmp_path, _STDLIB_ONLY_CLOCKY)
        target = self._violation(tmp_path)
        out = io.StringIO()
        assert main([str(target)], stdout=out) == 1
        pyproject.unlink()
        assert main([str(target)], stdout=out) == EXIT_CLEAN

    def test_unknown_config_key_exits_two(self, tmp_path):
        _write_pyproject(tmp_path, '[tool.repro-lint]\nbogus = 1\n')
        target = self._violation(tmp_path)
        err = io.StringIO()
        code = main([str(target)], stdout=io.StringIO(), stderr=err)
        assert code == EXIT_USAGE
        assert "bogus" in err.getvalue()

    @pytest.mark.parametrize("key", ["select", "exclude", "seams"])
    def test_removed_config_key_exits_two(self, tmp_path, key):
        _write_pyproject(tmp_path, f'[tool.repro-lint]\n{key} = ["RNG001"]\n')
        target = self._violation(tmp_path)
        err = io.StringIO()
        code = main([str(target)], stdout=io.StringIO(), stderr=err)
        assert code == EXIT_USAGE
        assert key in err.getvalue()
        assert "known: layers" in err.getvalue()


class TestRepoConfig:
    def test_repo_pyproject_declares_only_layers(self):
        config = load_config(REPO_ROOT)
        assert config.source == (REPO_ROOT / "pyproject.toml").as_posix()
        assert config.layers["repro.lint"] == ()
        assert all(isinstance(allowed, tuple) for allowed in config.layers.values())
