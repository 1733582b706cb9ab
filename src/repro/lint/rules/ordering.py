"""ORD001: nondeterministic iteration order feeding results.

Python sets iterate in hash-table order — reproducible only by accident of
the current CPython build — and directory listings come back in filesystem
order.  Results derived from either (float accumulation, emitted rows,
edge-append order) silently depend on it.  The rule flags the statically
certain cases:

* ``for x in <set-typed expr>`` (loops and comprehensions) where the
  expression is syntactically known to be a set (literal, ``set(...)``/
  ``frozenset(...)`` call, set-operator combination, or a name every one of
  whose local bindings is set-typed);
* set-typed expressions passed to order-sensitive consumers
  (``sum``/``list``/``tuple``/``enumerate``/``str.join``);
* ``os.listdir``/``os.scandir``/``glob.glob``/``glob.iglob`` and pathlib
  ``.glob``/``.rglob``/``.iterdir`` calls not wrapped in ``sorted(...)``,
  either directly or as the iterable of a comprehension or generator
  expression that is itself the argument of ``sorted(...)``.

``sorted(<set>)`` and order-free consumers (``len``/``min``/``max``/``any``/
``all``/membership) are the sanctioned forms and are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import Function, SetTypeTracker
from ..findings import Finding
from ..registry import LintRule
from ..walker import SourceModule

__all__ = ["IterationOrderRule"]

#: Builtin consumers whose output depends on iteration order.
_ORDER_SENSITIVE_BUILTINS: frozenset[str] = frozenset(
    {"sum", "list", "tuple", "enumerate"}
)

#: Fully qualified directory-listing calls with filesystem-dependent order.
_LISTING_CALLS: frozenset[str] = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Pathlib-style listing methods (matched by attribute name, best effort).
_LISTING_METHODS: frozenset[str] = frozenset({"glob", "rglob", "iterdir"})


class IterationOrderRule(LintRule):
    """ORD001: set/directory iteration order must not reach results."""

    rule_id = "ORD001"
    summary = (
        "iteration over a set or an unsorted directory listing feeds "
        "results; wrap in sorted(...) or restructure"
    )
    exempt_fragments = ("/tests/", "tests/conftest")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        index = module.index
        # A function's tracker sees every assignment in its subtree, nested
        # functions' included; module level (None) knows no names.
        outer = dict(index.functions)
        assigned: dict[Function, list[ast.stmt]] = {function: [] for function in outer}
        for assignment, function in index.assignments:
            while function is not None:
                assigned[function].append(assignment)
                function = outer[function]
        trackers: dict[Function | None, SetTypeTracker] = {
            function: SetTypeTracker(function, nodes) for function, nodes in assigned.items()
        }
        trackers[None] = SetTypeTracker(None, ())
        for loop, function in index.loops:
            if trackers[function].is_set_typed(loop.iter):
                yield self.finding(
                    module,
                    loop.iter,
                    "iterating a set: the loop order is hash-table "
                    "order; iterate sorted(...) instead",
                )
        for node, function in index.comprehensions:
            for comprehension in node.generators:  # type: ignore[attr-defined]
                if trackers[function].is_set_typed(comprehension.iter):
                    if self._is_order_free_comprehension(module, node):
                        continue
                    yield self.finding(
                        module,
                        comprehension.iter,
                        "comprehension iterates a set in hash-table "
                        "order; iterate sorted(...) instead",
                    )
        for call, name, function in index.calls:
            yield from self._check_call(module, call, name, trackers[function])

    def _check_call(
        self, module: SourceModule, node: ast.Call, name: str | None, tracker: SetTypeTracker
    ) -> Iterator[Finding]:
        if name in _LISTING_CALLS:
            if not self._directly_sorted(module, node):
                yield self.finding(
                    module,
                    node,
                    f"{name}() returns entries in filesystem order; wrap "
                    "the call in sorted(...)",
                )
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr in _LISTING_METHODS:
            if not self._directly_sorted(module, node):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}() returns entries in filesystem "
                    "order; wrap the call in sorted(...)",
                )
            return
        if isinstance(node.func, ast.Name) and node.func.id in _ORDER_SENSITIVE_BUILTINS:
            if node.args and tracker.is_set_typed(node.args[0]):
                yield self.finding(
                    module,
                    node.args[0],
                    f"{node.func.id}() over a set consumes hash-table "
                    "order; pass sorted(...) instead",
                )
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            if node.args and tracker.is_set_typed(node.args[0]):
                yield self.finding(
                    module,
                    node.args[0],
                    "join() over a set concatenates in hash-table order; "
                    "pass sorted(...) instead",
                )

    def _directly_sorted(self, module: SourceModule, node: ast.Call) -> bool:
        """Whether the call is an immediate argument of ``sorted(...)``, or
        the iterable of a comprehension that is one."""
        parents = module.index.parents
        parent = parents.get(node)
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            parent = parents.get(parents[parent])
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
        )

    def _is_order_free_comprehension(
        self, module: SourceModule, node: ast.AST
    ) -> bool:
        """Set comprehensions feeding sorted()/order-free reducers are fine."""
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            # Building another unordered container keeps order out of play.
            return True
        parent = module.index.parents.get(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            return parent.func.id in ("sorted", "len", "min", "max", "any", "all", "set", "frozenset")
        return False

