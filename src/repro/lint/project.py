"""Whole-program analysis: import graph, symbol tables, call graph.

The per-module rules (:class:`~repro.lint.registry.LintRule`) see one parsed
file at a time and therefore cannot check *cross-file* contracts — a seam
kwarg dropped between layers, a layering violation, a lazy export pointing
at a symbol that no longer exists.  This module parses every collected file
once into a :class:`ModuleSummary` — a plain-data digest of exactly the
facts the project rules need — and assembles the summaries into a
:class:`ProjectAnalysis`:

* a **module import graph** (imports resolved to absolute dotted module
  names, relative imports resolved against the importing module's package);
* a **per-module symbol table** with static ``__all__`` resolution
  (including ``*_EXPORTS`` star-expansion) and the lazy ``_EXPORTS``
  name → submodule mapping of PEP 562 packages;
* a conservative **intra-package call graph** keyed by qualified names,
  following import aliases and one-hop re-export chains.

Everything here is best-effort static analysis in the house style of
:mod:`repro.lint.astutil`: when a construct cannot be resolved the analysis
records nothing and the rules stay silent, trading recall for a near-zero
false-positive rate.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from .astutil import dotted_name, iter_assigned_names

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .config import LintConfig

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportRecord",
    "ModuleSummary",
    "ProjectAnalysis",
    "is_stdlib_module",
    "module_name_for_path",
    "render_import_graph_json",
    "summarize_module",
]

#: Maximum re-export hops followed when resolving a qualified callee.
_MAX_RESOLUTION_HOPS = 8


def is_stdlib_module(module: str) -> bool:
    """Whether ``module``'s top-level package ships with the interpreter."""
    top = module.partition(".")[0]
    return top in sys.stdlib_module_names


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
class ImportRecord:
    """One import statement, resolved to an absolute dotted target."""

    #: Absolute dotted module the statement imports from; empty when a
    #: relative import climbs past the package root (unresolvable).
    target: str
    #: Names bound by ``from target import ...`` (empty for plain imports).
    names: tuple[str, ...]
    line: int
    column: int
    is_from: bool


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
    imports: list[ImportRecord] = field(default_factory=list)
    #: Local name -> absolute dotted target it was imported as.
    aliases: dict[str, str] = field(default_factory=dict)
    #: Names bound at module level (defs, classes, assignments, imports).
    symbols: set[str] = field(default_factory=set)
    #: qualname -> info for top-level functions and one-level class methods.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Statically resolved ``__all__`` as (name, line) pairs; ``None`` when
    #: absent or not statically resolvable.
    dunder_all: list[tuple[str, int]] | None = None
    #: Lazy-export table literal ``_EXPORTS``: name -> (submodule, line).
    exports: dict[str, tuple[str, int]] | None = None
    defines_getattr: bool = False

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


def _literal_string_keys(node: ast.expr) -> list[tuple[str, int]] | None:
    """``(key, line)`` pairs of a dict literal with constant string keys."""
    if not isinstance(node, ast.Dict):
        return None
    keys: list[tuple[str, int]] = []
    for key in node.keys:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.append((key.value, key.lineno))
    return keys


def _resolve_dunder_all(
    value: ast.expr, dict_literals: Mapping[str, list[tuple[str, int]]]
) -> list[tuple[str, int]] | None:
    """Statically resolve an ``__all__`` list/tuple literal, or ``None``.

    Supports constant strings plus ``*name`` where ``name`` is a top-level
    dict literal with constant string keys (the ``*_EXPORTS`` idiom).
    """
    if not isinstance(value, (ast.List, ast.Tuple)):
        return None
    names: list[tuple[str, int]] = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.append((element.value, element.lineno))
        elif isinstance(element, ast.Starred) and isinstance(
            element.value, ast.Name
        ):
            keys = dict_literals.get(element.value.id)
            if keys is None:
                return None
            names.extend((name, element.lineno) for name, _ in keys)
        else:
            return None
    return names


def summarize_module(
    tree: ast.Module,
    *,
    module_name: str,
    display_path: str,
    is_package: bool,
) -> ModuleSummary:
    """Digest one parsed module into a :class:`ModuleSummary`."""
    summary = ModuleSummary(
        name=module_name, path=display_path, is_package=is_package
    )
    package = summary.package

    # Imports and aliases (anywhere in the module: function-local imports
    # feed the import graph too, which is what the layering rule wants).
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                summary.imports.append(
                    ImportRecord(
                        target=item.name,
                        names=(),
                        line=node.lineno,
                        column=node.col_offset,
                        is_from=False,
                    )
                )
                if item.asname:
                    summary.aliases[item.asname] = item.name
                else:
                    top = item.name.partition(".")[0]
                    summary.aliases.setdefault(top, top)
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(package, node.level, node.module or "")
            names = tuple(
                item.name for item in node.names if item.name != "*"
            )
            summary.imports.append(
                ImportRecord(
                    target=target,
                    names=names,
                    line=node.lineno,
                    column=node.col_offset,
                    is_from=True,
                )
            )
            if target:
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    summary.aliases[local] = f"{target}.{item.name}"

    # Top-level symbol table, function/method signatures, __all__, _EXPORTS.
    dict_literals: dict[str, list[tuple[str, int]]] = {}
    dunder_all_value: ast.expr | None = None
    for stmt in _iter_top_level(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.symbols.add(stmt.name)
            if stmt.name == "__getattr__":
                summary.defines_getattr = True
            summary.functions.setdefault(
                stmt.name,
                _function_info(
                    stmt, stmt.name, summary.aliases, is_method=False
                ),
            )
        elif isinstance(stmt, ast.ClassDef):
            summary.symbols.add(stmt.name)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    summary.functions.setdefault(
                        qualname,
                        _function_info(
                            item, qualname, summary.aliases, is_method=True
                        ),
                    )
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if isinstance(stmt, ast.Import):
                for item in stmt.names:
                    summary.symbols.add(
                        item.asname or item.name.partition(".")[0]
                    )
            else:
                for item in stmt.names:
                    if item.name != "*":
                        summary.symbols.add(item.asname or item.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                for name in iter_assigned_names(target):
                    summary.symbols.add(name)
                    if value is not None:
                        keys = _literal_string_keys(value)
                        if keys is not None:
                            dict_literals[name] = keys
                    if name == "__all__" and value is not None:
                        dunder_all_value = value
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in iter_assigned_names(stmt.target):
                summary.symbols.add(name)

    if dunder_all_value is not None:
        summary.dunder_all = _resolve_dunder_all(dunder_all_value, dict_literals)
    exports_keys = dict_literals.get("_EXPORTS")
    if exports_keys is not None:
        # Re-read values: _literal_string_keys only captured keys.
        for stmt in _iter_top_level(tree.body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if not any(
                    "_EXPORTS" in iter_assigned_names(t) for t in targets
                ):
                    continue
                if isinstance(stmt.value, ast.Dict):
                    exports: dict[str, tuple[str, int]] = {}
                    resolvable = True
                    for key, value in zip(stmt.value.keys, stmt.value.values):
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and isinstance(value, ast.Constant)
                            and isinstance(value.value, str)
                        ):
                            exports[key.value] = (value.value, key.lineno)
                        else:
                            resolvable = False
                    if resolvable:
                        summary.exports = exports
                break
    return summary


# --------------------------------------------------------------------------- #
# the assembled whole-program view
# --------------------------------------------------------------------------- #
class ProjectAnalysis:
    """Import graph + symbol tables + call graph over a set of summaries."""

    def __init__(
        self,
        summaries: Mapping[str, ModuleSummary] | None = None,
        *,
        config: "LintConfig | None" = None,
    ) -> None:
        from .config import LintConfig  # local: avoid import cycle at load

        self.modules: dict[str, ModuleSummary] = dict(
            sorted((summaries or {}).items())
        )
        self.config: LintConfig = config if config is not None else LintConfig()

    # ------------------------------------------------------------------ #
    # import graph
    # ------------------------------------------------------------------ #
    def import_targets(self, record: ImportRecord) -> list[str]:
        """Concrete module targets of one import statement.

        ``from pkg import a, b`` refines to ``pkg.a``/``pkg.b`` when those
        are project modules (submodule imports), else stays ``pkg``.
        """
        if not record.target:
            return []
        if not record.is_from or not record.names:
            return [record.target]
        targets: list[str] = []
        for name in record.names:
            candidate = f"{record.target}.{name}"
            targets.append(
                candidate if candidate in self.modules else record.target
            )
        return sorted(set(targets))

    def first_party_edges(self) -> dict[str, list[str]]:
        """Module -> sorted imported project modules (self-edges dropped)."""
        edges: dict[str, list[str]] = {}
        for name, summary in self.modules.items():
            targets: set[str] = set()
            for record in summary.imports:
                for target in self.import_targets(record):
                    resolved = self._project_prefix(target)
                    if resolved is not None and resolved != name:
                        targets.add(resolved)
            edges[name] = sorted(targets)
        return edges

    def external_imports(self, summary: ModuleSummary) -> list[str]:
        """Sorted top-level external (non-project) imports of a module."""
        external: set[str] = set()
        for record in summary.imports:
            for target in self.import_targets(record):
                if self._project_prefix(target) is None:
                    external.add(target.partition(".")[0])
        return sorted(external)

    def _project_prefix(self, module: str) -> str | None:
        """Longest project-module prefix of ``module``, or ``None``."""
        parts = module.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate
        return None

    # ------------------------------------------------------------------ #
    # call graph
    # ------------------------------------------------------------------ #
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
        if "." not in tail and tail in summary.symbols:
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


# --------------------------------------------------------------------------- #
# import-graph rendering (``repro lint --graph imports``)
# --------------------------------------------------------------------------- #
def render_import_graph_json(analysis: ProjectAnalysis) -> str:
    """Machine-readable import graph: first-party edges + external deps."""
    import json

    edges = analysis.first_party_edges()
    document = {
        "version": 1,
        "modules": {
            name: {
                "path": summary.path,
                "imports": edges.get(name, []),
                "external": analysis.external_imports(summary),
            }
            for name, summary in analysis.modules.items()
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"

