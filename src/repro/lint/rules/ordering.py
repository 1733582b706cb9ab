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
  ``.glob``/``.rglob``/``.iterdir`` calls not directly wrapped in
  ``sorted(...)``.

``sorted(<set>)`` and order-free consumers (``len``/``min``/``max``/``any``/
``all``/membership) are the sanctioned forms and are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import SetTypeTracker, call_name
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
        trackers: dict[ast.AST, SetTypeTracker] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                trackers[node] = SetTypeTracker(node)
        module_tracker = _ModuleTracker()
        for node in ast.walk(module.tree):
            tracker = self._enclosing_tracker(module, node, trackers) or module_tracker
            if isinstance(node, ast.For):
                if tracker.is_set_typed(node.iter):
                    yield self.finding(
                        module,
                        node.iter,
                        "iterating a set: the loop order is hash-table "
                        "order; iterate sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comprehension in node.generators:
                    if tracker.is_set_typed(comprehension.iter):
                        if self._is_order_free_comprehension(module, node):
                            continue
                        yield self.finding(
                            module,
                            comprehension.iter,
                            "comprehension iterates a set in hash-table "
                            "order; iterate sorted(...) instead",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, tracker)

    def _check_call(
        self, module: SourceModule, node: ast.Call, tracker: "SetTypeTracker | _ModuleTracker"
    ) -> Iterator[Finding]:
        name = call_name(node, module.aliases)
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

    def _enclosing_tracker(
        self,
        module: SourceModule,
        node: ast.AST,
        trackers: dict[ast.AST, SetTypeTracker],
    ) -> SetTypeTracker | None:
        current = module.parents.get(node)
        while current is not None:
            if current in trackers:
                return trackers[current]
            current = module.parents.get(current)
        return None

    def _directly_sorted(self, module: SourceModule, node: ast.Call) -> bool:
        """Whether the call is an immediate argument of ``sorted(...)``."""
        parent = module.parents.get(node)
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
        parent = module.parents.get(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            return parent.func.id in ("sorted", "len", "min", "max", "any", "all", "set", "frozenset")
        return False


class _ModuleTracker:
    """Module-level fallback: only literal/call set expressions are known."""

    def is_set_typed(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_typed(node.left) or self.is_set_typed(node.right)
        return False
