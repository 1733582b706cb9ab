"""EXP001: lazy ``_EXPORTS`` tables and ``__all__`` lists must resolve.

``repro/__init__.py`` exports its public surface lazily (PEP 562): a
``_EXPORTS`` dict maps each public name to the submodule that defines it,
and ``__getattr__`` imports on first access.  Nothing at import time checks
that the named submodule exists or still defines the symbol — a rename
deep in the package silently turns ``repro.X`` into an ``AttributeError``
at first use.  This rule resolves every entry statically:

* each ``_EXPORTS`` entry's submodule must be a project module, and that
  module's symbol table must contain the exported name;
* every name in a statically resolvable ``__all__`` must exist in the
  module's own symbol table (or be covered by its ``_EXPORTS`` table, which
  the first check already validates).

Dynamically built ``__all__`` lists are skipped — the analysis only judges
what it can prove.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..project import ProjectAnalysis

__all__ = ["ExportIntegrityRule"]


class ExportIntegrityRule(ProjectRule):
    """EXP001: an export that does not resolve to a defined symbol."""

    rule_id = "EXP001"
    summary = (
        "_EXPORTS entry or __all__ name does not resolve to a defined "
        "symbol"
    )

    def check(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        for summary in project.modules.values():
            if summary.exports is not None:
                base = summary.package
                for name, (submodule, line) in sorted(
                    summary.exports.items(), key=lambda item: item[1][1]
                ):
                    target_name = (
                        f"{base}.{submodule}" if base else submodule
                    )
                    target = project.modules.get(target_name)
                    if target is None:
                        yield self.finding(
                            summary.path,
                            (line, 0),
                            f"_EXPORTS entry {name!r} names module "
                            f"{target_name!r}, which is not in the project",
                        )
                    elif name not in target.symbols and not (
                        target.exports is not None and name in target.exports
                    ):
                        yield self.finding(
                            summary.path,
                            (line, 0),
                            f"_EXPORTS entry {name!r} does not resolve: "
                            f"module {target_name!r} defines no such symbol",
                        )
            if summary.dunder_all is not None:
                for name, line in summary.dunder_all:
                    if name in summary.symbols:
                        continue
                    if summary.exports is not None and name in summary.exports:
                        continue  # judged by the _EXPORTS pass above
                    yield self.finding(
                        summary.path,
                        (line, 0),
                        f"__all__ names {name!r}, which the module neither "
                        "defines nor imports",
                    )
