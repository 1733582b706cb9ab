"""``[tool.repro-lint]`` configuration from ``pyproject.toml``.

The linter reads one optional key via stdlib :mod:`tomllib`:

``layers``
    The declared import-layer DAG for the IMP001 rule: a table mapping a
    module prefix (the layer) to the list of import prefixes modules under
    it may use.  Stdlib imports and intra-layer imports are always allowed;
    an empty list therefore means *stdlib only*.

Unknown keys — and values of the wrong shape — are **usage errors**
(:class:`~repro.lint.errors.LintError`, CLI exit code 2), so a typo in the
config cannot silently disable a contract.  A missing file or a missing
``[tool.repro-lint]`` table yields the defaults; the pyproject found is the
run's root either way.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import LintError

__all__ = ["LintConfig", "find_pyproject", "load_config"]

_KNOWN_KEYS = frozenset({"layers"})


@dataclass
class LintConfig:
    """Resolved linter configuration (defaults when no pyproject is found)."""

    #: Layer prefix -> allowed import prefixes (stdlib always implied).
    layers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Path of the nearest pyproject.toml, with or without a table, if any:
    #: exemptions are matched relative to its directory.
    source: str | None = None


def find_pyproject(anchor: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``anchor`` (file or dir)."""
    current = anchor.resolve()
    if current.is_file():
        current = current.parent
    while True:
        candidate = current / "pyproject.toml"
        if candidate.is_file():
            return candidate
        if current.parent == current:
            return None
        current = current.parent


def _string_tuple(value: Any, key: str, source: Path) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintError(
            f"[tool.repro-lint] {key} in {source} must be a list of strings"
        )
    return tuple(value)


def _parse_table(table: Mapping[str, Any], source: Path) -> LintConfig:
    unknown = sorted(set(table) - _KNOWN_KEYS)
    if unknown:
        raise LintError(
            f"unknown [tool.repro-lint] key(s) in {source}: "
            f"{', '.join(unknown)} (known: {', '.join(sorted(_KNOWN_KEYS))})"
        )
    config = LintConfig(source=source.as_posix())
    if "layers" in table:
        layers = table["layers"]
        if not isinstance(layers, Mapping):
            raise LintError(
                f"[tool.repro-lint] layers in {source} must be a table of "
                "layer prefix -> allowed import prefixes"
            )
        config.layers = {
            layer: _string_tuple(allowed, f"layers.{layer}", source)
            for layer, allowed in layers.items()
        }
    return config


def load_config(anchor: Path | None = None) -> LintConfig:
    """Load the linter config for a run.

    The nearest pyproject.toml at or above ``anchor`` (default: the current
    directory) is used, and recorded as the source even when it has no
    ``[tool.repro-lint]`` table; no pyproject at all yields the built-in
    defaults with no source.
    """
    pyproject = find_pyproject(anchor if anchor is not None else Path.cwd())
    if pyproject is None:
        return LintConfig()
    try:
        with pyproject.open("rb") as handle:
            data = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as error:
        raise LintError(f"cannot read {pyproject}: {error}") from None
    table = data.get("tool", {}).get("repro-lint")
    if table is None:
        return LintConfig(source=pyproject.as_posix())
    if not isinstance(table, Mapping):
        raise LintError(f"[tool.repro-lint] in {pyproject} must be a table")
    return _parse_table(table, pyproject)
