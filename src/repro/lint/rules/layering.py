"""IMP001: the import graph must respect the declared layer DAG.

The architecture is layered (models → kernels → runtime → specs →
telemetry → linter) and each layer's allowed dependencies are declared
once, in ``[tool.repro-lint.layers]`` in pyproject.toml::

    [tool.repro-lint.layers]
    "repro.lint" = []                       # stdlib only
    "repro.obs"  = ["repro.exceptions"]     # never repro.api

A module belongs to the *longest* declared prefix that matches its dotted
name.  Every import it performs (top-level or function-local — deferred
imports are dependencies too) must then be stdlib, intra-layer, or match
one of the allowed prefixes; anything else is an IMP001 finding at the
import statement.  ``from pkg import name`` is refined to ``pkg.name``
when that is a project module, so importing a sanctioned submodule of an
otherwise-forbidden package stays expressible.

Modules under no declared layer are unconstrained — the rule enforces
exactly the DAG the project wrote down, nothing inferred.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..project import is_stdlib_module
from ..registry import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..project import ProjectAnalysis

__all__ = ["ImportLayeringRule"]


def _matches_prefix(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class ImportLayeringRule(ProjectRule):
    """IMP001: imports crossing the declared layer DAG."""

    rule_id = "IMP001"
    summary = (
        "import violates the [tool.repro-lint.layers] layer DAG "
        "(stdlib and intra-layer imports are always allowed)"
    )

    def check(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        layers = project.config.layers
        if not layers:
            return
        for summary in project.modules.values():
            layer = self._layer_for(summary.name, layers)
            if layer is None:
                continue
            allowed = layers[layer]
            for record in summary.imports:
                for target in project.import_targets(record):
                    if is_stdlib_module(target):
                        continue
                    if _matches_prefix(target, layer):
                        continue
                    if any(
                        _matches_prefix(target, prefix) for prefix in allowed
                    ):
                        continue
                    allowed_text = ", ".join(("stdlib", *allowed))
                    yield self.finding(
                        summary.path,
                        record,
                        f"layer {layer!r} may not import {target!r} "
                        f"(allowed: {allowed_text})",
                    )

    @staticmethod
    def _layer_for(
        module: str, layers: dict[str, tuple[str, ...]]
    ) -> str | None:
        best: str | None = None
        for layer in layers:
            if _matches_prefix(module, layer):
                if best is None or len(layer) > len(best):
                    best = layer
        return best
