"""Shared AST helpers for the lint rules.

Pure-stdlib utilities: import-alias resolution (so ``np.random.default_rng``
and ``from numpy.random import default_rng`` resolve to the same qualified
name), a child -> parent map for ancestry queries, and a conservative
set-typedness analysis used by the ordering rule.  Everything here is
best-effort static analysis — when a construct cannot be resolved the
helpers return ``None``/``False`` and the rules stay silent, trading recall
for a near-zero false-positive rate.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = [
    "call_name",
    "collect_import_aliases",
    "dotted_name",
    "iter_assigned_names",
    "parent_map",
    "SetTypeTracker",
]


def collect_import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the fully qualified names they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random import
    default_rng as rng_factory`` maps ``rng_factory -> numpy.random.default_rng``.
    Relative imports keep their leading dots so rules can recognise
    package-local names (e.g. ``.random_source.RandomSource``).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                target = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{prefix}.{item.name}" if prefix else item.name
    return aliases


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


def parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Child -> parent links for every node in ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


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
    """

    def __init__(self, scope: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._set_names: set[str] = set()
        self._unknown_names: set[str] = set()
        for arg in [
            *scope.args.posonlyargs,
            *scope.args.args,
            *scope.args.kwonlyargs,
        ]:
            if _annotation_is_set(arg.annotation):
                self._set_names.add(arg.arg)
        for node in ast.walk(scope):
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
