"""Shared AST helpers for the lint rules.

Pure-stdlib utilities: a one-pass per-module index (parent links, each
node's enclosing function, and the node lists the rules read), import-alias
resolution (so ``np.random.default_rng`` and ``from numpy.random import
default_rng`` resolve to the same qualified name), and a conservative
set-typedness analysis used by the ordering rule.  Everything here is
best-effort static analysis — when a construct cannot be resolved the
helpers return ``None``/``False`` and the rules stay silent, trading recall
for a near-zero false-positive rate.
"""

from __future__ import annotations

import ast
from typing import Collection, Iterable, Iterator, Union

__all__ = [
    "call_name",
    "dotted_name",
    "iter_assigned_names",
    "ModuleIndex",
    "SetTypeTracker",
]

#: A function scope: what the index's enclosing-function links point at.
Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class ModuleIndex:
    """Everything the rules read about one module, from one walk of its tree.

    The walk is breadth-first in :func:`ast.walk` order, so every node list
    below is in that order too.  Each list entry pairs a node with its
    nearest enclosing ``def`` (``None`` at module level; lambdas and class
    bodies belong to the function around them).

    * ``parents``: child -> parent links for every node;
    * ``calls``: ``(call, resolved name, function)``, the name resolved once
      through ``aliases`` by :func:`call_name`;
    * ``loops`` (``for`` statements), ``comprehensions``, ``functions``,
      ``assignments`` (``=`` and annotated), ``imports`` and ``names``;
    * ``aliases``: local name -> fully qualified imported name, from every
      import in the module, the later one winning, except that a plain
      ``import`` never displaces an earlier binding.  ``import numpy as np``
      maps ``np -> numpy``; ``from numpy.random import default_rng as make``
      maps ``make -> numpy.random.default_rng``.  Relative imports keep one
      leading dot per level (``from . import core`` maps ``core -> .core``)
      so rules can recognise package-local names and the call graph can
      resolve them against the module's package.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.parents: dict[ast.AST, ast.AST] = {}
        self.loops: list[tuple[ast.For, Function | None]] = []
        self.comprehensions: list[tuple[ast.expr, Function | None]] = []
        self.functions: list[tuple[Function, Function | None]] = []
        self.assignments: list[tuple[ast.stmt, Function | None]] = []
        self.imports: list[tuple[ast.Import | ast.ImportFrom, Function | None]] = []
        self.names: list[tuple[ast.Name, Function | None]] = []
        calls: list[tuple[ast.Call, Function | None]] = []
        buckets: dict[type, list] = {
            ast.Call: calls,
            ast.For: self.loops,
            ast.ListComp: self.comprehensions,
            ast.SetComp: self.comprehensions,
            ast.DictComp: self.comprehensions,
            ast.GeneratorExp: self.comprehensions,
            ast.FunctionDef: self.functions,
            ast.AsyncFunctionDef: self.functions,
            ast.Assign: self.assignments,
            ast.AnnAssign: self.assignments,
            ast.Import: self.imports,
            ast.ImportFrom: self.imports,
            ast.Name: self.names,
        }
        parents = self.parents
        queue: list[tuple[ast.AST, Function | None]] = [(tree, None)]
        for node, function in queue:  # the queue grows as it is read
            bucket = buckets.get(type(node))
            if bucket is not None:
                bucket.append((node, function))
                if bucket is self.functions:
                    function = node  # type: ignore[assignment]
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                queue.append((child, function))
        self.aliases: dict[str, str] = {}
        for statement, _ in self.imports:
            if isinstance(statement, ast.Import):
                for item in statement.names:
                    if item.asname:
                        self.aliases[item.asname] = item.name
                    else:
                        top = item.name.partition(".")[0]
                        self.aliases.setdefault(top, top)
            else:
                dots = "." * statement.level
                for item in statement.names:
                    if item.name != "*":
                        target = f"{statement.module}.{item.name}" if statement.module else item.name
                        self.aliases[item.asname or item.name] = dots + target
        self.calls: list[tuple[ast.Call, str | None, Function | None]] = [
            (node, call_name(node, self.aliases), function) for node, function in calls
        ]

    def within(self, node: ast.AST, subtrees: Collection[ast.AST]) -> bool:
        """Whether ``node`` is the root of, or lies inside, one of ``subtrees``."""
        current: ast.AST | None = node
        while current is not None:
            if current in subtrees:
                return True
            current = self.parents.get(current)
        return False


def dotted_name(node: ast.expr) -> str | None:
    """The dotted source form of a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_name(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Resolve a call's target through the module's import aliases.

    Returns the fully qualified dotted name when the call target is a plain
    Name/Attribute chain rooted in an imported name, the dotted source form
    when the root is a local name, and ``None`` for dynamic targets
    (subscripts, call results, lambdas).
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    resolved_root = aliases.get(root, root)
    return f"{resolved_root}.{rest}" if rest else resolved_root


def iter_assigned_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from iter_assigned_names(element)


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    """Whether a type annotation's outermost constructor is set/frozenset."""
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):  # set[int], frozenset[str]
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: look at the leading identifier only.
        head = node.value.split("[", 1)[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    name = dotted_name(node)
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    return leaf in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")


class SetTypeTracker:
    """Conservative set-typedness analysis for one function scope.

    An expression is *known set-typed* when it is a set literal or
    comprehension, a direct ``set(...)``/``frozenset(...)`` call, a set
    operator combination of known set-typed operands, or a plain name whose
    annotation or every tracked assignment in this scope is set-typed.
    Anything else — subscripts, attributes, call results — is unknown and
    never reported, so the ordering rule only fires where the set type is
    syntactically certain.

    ``assignments`` are the ``=`` and annotated assignments anywhere in the
    function's subtree, nested functions included.  A ``None`` scope is
    module level, where only set literals, ``set(...)``/``frozenset(...)``
    calls and set-operator combinations of them are known.
    """

    def __init__(self, scope: Function | None, assignments: Iterable[ast.stmt]) -> None:
        self._set_names: set[str] = set()
        self._unknown_names: set[str] = set()
        args = scope.args if scope is not None else None
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs] if args else []:
            if _annotation_is_set(arg.annotation):
                self._set_names.add(arg.arg)
        for node in assignments:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _annotation_is_set(node.annotation):
                    self._set_names.add(node.target.id)
                else:
                    self._unknown_names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                is_set_value = self._expression_is_set(node.value, names=False)
                for name in (
                    name
                    for target in node.targets
                    for name in iter_assigned_names(target)
                ):
                    if is_set_value:
                        self._set_names.add(name)
                    else:
                        self._unknown_names.add(name)
        # A name with any non-set binding is ambiguous: never report it.
        self._set_names -= self._unknown_names

    def is_set_typed(self, node: ast.expr) -> bool:
        """Whether ``node`` is statically known to evaluate to a set."""
        return self._expression_is_set(node, names=True)

    def _expression_is_set(self, node: ast.expr, *, names: bool) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._expression_is_set(
                node.left, names=names
            ) or self._expression_is_set(node.right, names=names)
        if names and isinstance(node, ast.Name):
            return node.id in self._set_names
        return False
