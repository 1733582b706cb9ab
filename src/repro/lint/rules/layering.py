"""IMP001: every import must respect the declared layer DAG.

The architecture is layered (models → kernels → runtime → specs →
telemetry → linter) and each layer's allowed dependencies are declared
once, in ``[tool.repro-lint.layers]`` in pyproject.toml::

    [tool.repro-lint.layers]
    "repro.lint" = []                       # stdlib only
    "repro.obs"  = ["repro.exceptions"]     # never repro.api

A module belongs to the *longest* declared prefix that matches its dotted
name.  Every import it performs (top-level or function-local — deferred
imports are dependencies too) must then be stdlib, intra-layer, or match
one of the allowed prefixes; anything else is one IMP001 finding per
import statement, naming what it may not import.  Relative imports resolve against the module's own
dotted name.  ``from pkg import name`` is allowed when either ``pkg`` or
``pkg.name`` matches, so importing a sanctioned submodule of an
otherwise-forbidden package stays expressible.

Each module is judged on its own imports, so this is a per-module rule.
Modules under no declared layer are unconstrained — the rule enforces
exactly the DAG the project wrote down, nothing inferred.
"""

from __future__ import annotations

import ast
import sys
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..project import absolute_name
from ..registry import LintRule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..walker import SourceModule

__all__ = ["ImportLayeringRule"]


def _matches_prefix(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class ImportLayeringRule(LintRule):
    """IMP001: imports crossing the declared layer DAG."""

    rule_id = "IMP001"
    summary = (
        "import violates the [tool.repro-lint.layers] layer DAG "
        "(stdlib and intra-layer imports are always allowed)"
    )

    def check(self, module: "SourceModule") -> Iterator[Finding]:
        layers = module.config.layers
        if not layers:
            return
        name = module.name
        layer = max(
            (prefix for prefix in layers if _matches_prefix(name, prefix)),
            key=len,
            default=None,
        )
        if layer is None:
            return
        allowed = (layer, *layers[layer])
        package = name if module.path.stem == "__init__" else name.rpartition(".")[0]

        def permitted(target: str) -> bool:
            return target.partition(".")[0] in sys.stdlib_module_names or any(
                _matches_prefix(target, prefix) for prefix in allowed
            )

        for node, _ in module.index.imports:
            if isinstance(node, ast.Import):
                targets = [item.name for item in node.names]
            else:
                base = absolute_name("." * node.level + (node.module or ""), package)
                if not base or permitted(base):
                    continue
                targets = [
                    base if item.name == "*" else f"{base}.{item.name}"
                    for item in node.names
                ]
            forbidden = [target for target in targets if not permitted(target)]
            if forbidden:
                yield self.finding(
                    module,
                    node,
                    f"layer {layer!r} may not import "
                    f"{', '.join(map(repr, forbidden))} "
                    f"(allowed: {', '.join(('stdlib', *layers[layer]))})",
                )
