"""Whole-program analysis: the call graph the seam rule (CTX001) reads.

The per-module rules (:class:`~repro.lint.registry.LintRule`) see one parsed
file at a time and therefore cannot check *cross-file* contracts such as a
seam kwarg dropped between layers.  This module parses every collected file
once into a :class:`ModuleSummary` — a plain-data digest of each module's
import aliases and function signatures — and assembles the summaries into a
:class:`ProjectAnalysis`: a conservative **intra-package call graph** keyed
by qualified names, following import aliases (relative imports resolved
against the importing module's package) and one-hop re-export chains.

Everything here is best-effort static analysis in the house style of
:mod:`repro.lint.astutil`: when a construct cannot be resolved the analysis
records nothing and the rules stay silent, trading recall for a near-zero
false-positive rate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from .astutil import ModuleIndex, dotted_name

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleSummary",
    "ProjectAnalysis",
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
    line: int
    column: int
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
    calls: tuple[CallSite, ...] = ()

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
def _resolve_relative(package: str, level: int, tail: str) -> str:
    """Absolute target of a level-``level`` relative import from ``package``.

    Returns an empty string when the import climbs past the package root.
    """
    if level == 0:
        return tail
    parts = package.split(".") if package else []
    strip = level - 1
    if strip > len(parts):
        return ""
    base = ".".join(parts[: len(parts) - strip] if strip else parts)
    if not base:
        return tail
    return f"{base}.{tail}" if tail else base


def _iter_top_level(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, descending into if/try/with blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _iter_top_level(stmt.body)
            yield from _iter_top_level(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _iter_top_level(stmt.body)
            for handler in stmt.handlers:
                yield from _iter_top_level(handler.body)
            yield from _iter_top_level(stmt.orelse)
            yield from _iter_top_level(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _iter_top_level(stmt.body)


class _CallCollector(ast.NodeVisitor):
    """Collect call sites of one function body, excluding nested scopes."""

    def __init__(self, aliases: Mapping[str, str]) -> None:
        self._aliases = aliases
        self.calls: list[CallSite] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested scope: its calls are not the outer function's

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if callee is not None:
            root, _, rest = callee.partition(".")
            resolved_root = self._aliases.get(root, root)
            resolved = f"{resolved_root}.{rest}" if rest else resolved_root
            self.calls.append(
                CallSite(
                    callee=resolved,
                    line=node.lineno,
                    column=node.col_offset,
                    num_positional=sum(
                        1 for arg in node.args if not isinstance(arg, ast.Starred)
                    ),
                    has_star_args=any(
                        isinstance(arg, ast.Starred) for arg in node.args
                    ),
                    keywords=tuple(
                        kw.arg for kw in node.keywords if kw.arg is not None
                    ),
                    has_star_kwargs=any(
                        kw.arg is None for kw in node.keywords
                    ),
                )
            )
        self.generic_visit(node)


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    aliases: Mapping[str, str],
    *,
    is_method: bool,
) -> FunctionInfo:
    args = node.args
    collector = _CallCollector(aliases)
    for stmt in node.body:
        collector.visit(stmt)
    return FunctionInfo(
        qualname=qualname,
        line=node.lineno,
        positional=tuple(a.arg for a in (*args.posonlyargs, *args.args)),
        keyword_only=tuple(a.arg for a in args.kwonlyargs),
        has_vararg=args.vararg is not None,
        has_kwargs=args.kwarg is not None,
        is_method=is_method,
        calls=tuple(collector.calls),
    )


def summarize_module(
    tree: ast.Module,
    *,
    module_name: str,
    display_path: str,
    is_package: bool,
    index: ModuleIndex | None = None,
) -> ModuleSummary:
    """Digest one parsed module into a :class:`ModuleSummary`.

    ``index`` is the :class:`~repro.lint.astutil.ModuleIndex` of ``tree``
    when the caller already holds one (the walker does); without it one is
    built here.
    """
    if index is None:
        index = ModuleIndex(tree)
    summary = ModuleSummary(
        name=module_name, path=display_path, is_package=is_package
    )
    package = summary.package

    # Import aliases, from anywhere in the module (function-local imports
    # bind names that calls in that function resolve through), in
    # breadth-first order: a later ``as`` or ``from`` import wins, a plain
    # ``import`` never displaces an earlier binding.
    for node, _ in index.imports:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    summary.aliases[item.asname] = item.name
                else:
                    top = item.name.partition(".")[0]
                    summary.aliases.setdefault(top, top)
        else:
            target = _resolve_relative(package, node.level, node.module or "")
            if target:
                for item in node.names:
                    if item.name != "*":
                        local = item.asname or item.name
                        summary.aliases[local] = f"{target}.{item.name}"

    # Top-level function and one-level method signatures.
    for stmt in _iter_top_level(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions.setdefault(
                stmt.name,
                _function_info(
                    stmt, stmt.name, summary.aliases, is_method=False
                ),
            )
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    summary.functions.setdefault(
                        qualname,
                        _function_info(
                            item, qualname, summary.aliases, is_method=True
                        ),
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
