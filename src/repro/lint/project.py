"""Whole-program analysis: the call graph the seam rule (CTX001) reads.

The per-module rules (:class:`~repro.lint.registry.LintRule`) see one parsed
file at a time and therefore cannot check *cross-file* contracts such as a
seam kwarg dropped between layers.  This module digests every collected file
into a :class:`ModuleSummary` — a plain-data record of each module's import
aliases, function signatures and call sites, read off the module's
:class:`~repro.lint.astutil.ModuleIndex` without a walk of its own — and
assembles the summaries into a :class:`ProjectAnalysis`: a conservative
**intra-package call graph** keyed by qualified names, following import
aliases (relative imports resolved against the importing module's package)
and one-hop re-export chains.

Everything here is best-effort static analysis in the house style of
:mod:`repro.lint.astutil`: when a construct cannot be resolved the analysis
records nothing and the rules stay silent, trading recall for a near-zero
false-positive rate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .astutil import Function, ModuleIndex

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleSummary",
    "ProjectAnalysis",
    "absolute_name",
    "module_name_for_path",
    "summarize_module",
]

#: Maximum re-export hops followed when resolving a qualified callee.
_MAX_RESOLUTION_HOPS = 8


def module_name_for_path(path: Path) -> str:
    """Dotted module name for a source file, found via ``__init__.py`` walk.

    ``src/repro/lint/walker.py`` maps to ``repro.lint.walker`` and a package
    ``__init__.py`` maps to the package name itself.  A file outside any
    package resolves to its bare stem.
    """
    resolved = path.resolve()
    parts: list[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(reversed(parts)) or resolved.stem


@dataclass
class CallSite:
    """One call expression inside a function body."""

    #: Dotted callee as written, with the root resolved through the module's
    #: import aliases when possible (e.g. ``repro.runtime.engine.map_chunks``).
    callee: str
    #: Source position, named like an AST node's so a finding reads either.
    lineno: int
    col_offset: int
    num_positional: int
    has_star_args: bool
    keywords: tuple[str, ...]
    has_star_kwargs: bool


@dataclass
class FunctionInfo:
    """Signature and outgoing calls of one top-level function or method."""

    #: ``name`` for module-level functions, ``Class.name`` for methods.
    qualname: str
    line: int
    #: Positional-capable parameters in order (pos-only then regular).
    positional: tuple[str, ...]
    keyword_only: tuple[str, ...]
    has_vararg: bool
    has_kwargs: bool
    is_method: bool
    #: Calls in the function's own body, in breadth-first order.
    calls: list[CallSite] = field(default_factory=list)

    @property
    def parameters(self) -> tuple[str, ...]:
        """Every named parameter (positional and keyword-only)."""
        return self.positional + self.keyword_only


@dataclass
class ModuleSummary:
    """Plain-data digest of one module for the project rules."""

    name: str
    path: str
    is_package: bool
    #: Local name -> absolute dotted target it was imported as.
    aliases: dict[str, str] = field(default_factory=dict)
    #: qualname -> info for top-level functions and one-level class methods.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]


# --------------------------------------------------------------------------- #
# summary construction
# --------------------------------------------------------------------------- #
def absolute_name(name: str, package: str) -> str:
    """``name`` with its leading-dot relative prefix resolved against ``package``.

    A relative name carries one leading dot per import level, as
    :class:`~repro.lint.astutil.ModuleIndex` aliases do.  Returns an empty
    string when the name climbs past the package root.
    """
    tail = name.lstrip(".")
    level = len(name) - len(tail)
    if level == 0:
        return name
    parts = package.split(".") if package else []
    if level - 1 > len(parts):
        return ""
    base = ".".join(parts[: len(parts) - level + 1])
    return f"{base}.{tail}" if base and tail else base or tail


#: Statements whose bodies still run at module level.
_MODULE_LEVEL_BLOCKS = (ast.If, ast.Try, ast.ExceptHandler, ast.With, ast.AsyncWith)


def _at_module_level(parents: Mapping[ast.AST, ast.AST], node: ast.AST) -> bool:
    """Whether a statement sits at module level, through if/try/with blocks."""
    parent = parents[node]
    while isinstance(parent, _MODULE_LEVEL_BLOCKS):
        parent = parents[parent]
    return isinstance(parent, ast.Module)


def _in_own_body(
    parents: Mapping[ast.AST, ast.AST], node: ast.AST, function: Function
) -> bool:
    """Whether ``node`` runs in ``function``'s body itself.

    A node inside a lambda or a class body, or in the function's own
    decorators, defaults or annotations, is not the function's.
    """
    parent = parents[node]
    while parent is not function:
        if isinstance(parent, (ast.Lambda, ast.ClassDef)):
            return False
        node, parent = parent, parents[parent]
    return node in function.body


def summarize_module(
    tree: ast.Module,
    *,
    module_name: str,
    display_path: str,
    is_package: bool,
    index: ModuleIndex | None = None,
) -> ModuleSummary:
    """Digest one parsed module into a :class:`ModuleSummary`.

    Everything is read from the module's
    :class:`~repro.lint.astutil.ModuleIndex` (``index`` when the caller
    already holds it, as the walker does; else one is built here): its
    import aliases and call names, made absolute against the module's
    package, and its top-level functions and one-level methods, the first
    definition of a name winning.
    """
    if index is None:
        index = ModuleIndex(tree)
    summary = ModuleSummary(
        name=module_name, path=display_path, is_package=is_package
    )
    package = summary.package
    for local, target in index.aliases.items():
        resolved = absolute_name(target, package)
        if resolved:
            summary.aliases[local] = resolved

    parents = index.parents
    # Source order, so the first definition of a name wins.
    defined = sorted(
        (node for node, enclosing in index.functions if enclosing is None),
        key=lambda node: node.lineno,
    )
    infos: dict[ast.AST, FunctionInfo] = {}
    for node in defined:
        owner = parents[node]
        if isinstance(owner, ast.ClassDef) and _at_module_level(parents, owner):
            qualname = f"{owner.name}.{node.name}"
        elif _at_module_level(parents, node):
            qualname = node.name
        else:
            continue
        if qualname in summary.functions:
            continue
        args = node.args
        summary.functions[qualname] = infos[node] = FunctionInfo(
            qualname=qualname,
            line=node.lineno,
            positional=tuple(a.arg for a in (*args.posonlyargs, *args.args)),
            keyword_only=tuple(a.arg for a in args.kwonlyargs),
            has_vararg=args.vararg is not None,
            has_kwargs=args.kwarg is not None,
            is_method=qualname != node.name,
        )

    for node, name, function in index.calls:
        if function is None or function not in infos or name is None:
            continue
        callee = absolute_name(name, package)
        if callee and _in_own_body(parents, node, function):
            infos[function].calls.append(
                CallSite(
                    callee=callee,
                    lineno=node.lineno,
                    col_offset=node.col_offset,
                    num_positional=sum(
                        not isinstance(arg, ast.Starred) for arg in node.args
                    ),
                    has_star_args=any(isinstance(arg, ast.Starred) for arg in node.args),
                    keywords=tuple(kw.arg for kw in node.keywords if kw.arg is not None),
                    has_star_kwargs=any(kw.arg is None for kw in node.keywords),
                )
            )
    return summary


# --------------------------------------------------------------------------- #
# the assembled whole-program view
# --------------------------------------------------------------------------- #
class ProjectAnalysis:
    """Call graph over a set of module summaries."""

    def __init__(self, summaries: Mapping[str, ModuleSummary] | None = None) -> None:
        self.modules: dict[str, ModuleSummary] = dict(
            sorted((summaries or {}).items())
        )

    def resolve_callable(
        self, module_name: str, callee: str
    ) -> tuple[ModuleSummary, FunctionInfo] | None:
        """Resolve a call target to a project function, conservatively.

        Handles locally defined functions, class constructors (resolved to
        ``Class.__init__``), imported names, and one-hop re-export chains
        (``from .engine import map_chunks`` in a package ``__init__``).
        Returns ``None`` whenever the target is dynamic or external.
        """
        summary = self.modules.get(module_name)
        if summary is None:
            return None
        head, _, rest = callee.partition(".")
        if head in summary.aliases:
            target = summary.aliases[head]
            full = f"{target}.{rest}" if rest else target
            return self._resolve_qualified(full, hops=0)
        local = self._lookup_function(summary, callee)
        if local is not None:
            return summary, local
        return self._resolve_qualified(callee, hops=0)

    def _lookup_function(
        self, summary: ModuleSummary, tail: str
    ) -> FunctionInfo | None:
        info = summary.functions.get(tail)
        if info is not None:
            return info
        # A bare class name is a constructor call.
        if "." not in tail:
            return summary.functions.get(f"{tail}.__init__")
        return None

    def _resolve_qualified(
        self, dotted: str, *, hops: int
    ) -> tuple[ModuleSummary, FunctionInfo] | None:
        if hops > _MAX_RESOLUTION_HOPS:
            return None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            summary = self.modules.get(module)
            if summary is None:
                continue
            tail = ".".join(parts[i:])
            info = self._lookup_function(summary, tail)
            if info is not None:
                return summary, info
            head, _, rest = tail.partition(".")
            if head in summary.aliases:
                target = summary.aliases[head]
                full = f"{target}.{rest}" if rest else target
                return self._resolve_qualified(full, hops=hops + 1)
            return None
        return None
