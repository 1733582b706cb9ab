"""PKL001: workers crossing the executor seam must be picklable.

The parallel runtime ships workers to process pools by pickling, and
pickling resolves functions by module-level name — lambdas, functions
defined inside another function, and bound instance methods all fail (or,
worse for determinism, capture mutable state).  PR 2 established the
convention that everything passed to ``run_seeded_tasks``/``run_tasks``/
``instrumented_map``/``executor.map`` is a module-level callable; this rule
enforces it statically, including on code paths no test exercises.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import LintRule
from ..walker import SourceModule

__all__ = ["PicklableWorkerRule"]

#: Seam functions whose first positional argument is the worker callable.
_SEAM_FUNCTIONS: frozenset[str] = frozenset(
    {"run_seeded_tasks", "run_tasks"}
)

#: Seam functions whose *second* positional argument is the worker.
_SEAM_FUNCTIONS_ARG1: frozenset[str] = frozenset({"instrumented_map"})

#: Method names treated as executor seams (``executor.map(fn, tasks)``).
_SEAM_METHODS: frozenset[str] = frozenset({"map"})

#: Keyword names carrying the worker at any seam.
_WORKER_KEYWORDS: frozenset[str] = frozenset({"worker", "fn"})


class PicklableWorkerRule(LintRule):
    """PKL001: no lambdas / nested defs / bound methods at executor seams."""

    rule_id = "PKL001"
    summary = (
        "lambda, nested function, or bound method passed to "
        "run_seeded_tasks/run_tasks/executor.map — workers must be "
        "picklable module-level callables"
    )
    exempt_fragments = ("/tests/", "tests/conftest")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        nested_defs = self._nested_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            worker = self._worker_argument(node)
            if worker is None:
                continue
            yield from self._check_worker(module, node, worker, nested_defs)

    def _worker_argument(self, node: ast.Call) -> ast.expr | None:
        """The worker expression if ``node`` is a seam call, else ``None``."""
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        for keyword in node.keywords:
            if keyword.arg in _WORKER_KEYWORDS and (
                name in _SEAM_FUNCTIONS
                or name in _SEAM_FUNCTIONS_ARG1
                or (isinstance(func, ast.Attribute) and name in _SEAM_METHODS)
            ):
                return keyword.value
        if name in _SEAM_FUNCTIONS and node.args:
            return node.args[0]
        if name in _SEAM_FUNCTIONS_ARG1 and len(node.args) >= 2:
            return node.args[1]
        if (
            isinstance(func, ast.Attribute)
            and name in _SEAM_METHODS
            and node.args
        ):
            # ``<anything>.map(fn, ...)``: builtin map() is a Name call and
            # does not reach here; attribute .map is the executor protocol.
            return node.args[0]
        return None

    def _check_worker(
        self,
        module: SourceModule,
        call: ast.Call,
        worker: ast.expr,
        nested_defs: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(worker, ast.Lambda):
            yield self.finding(
                module,
                worker,
                "lambda passed across the executor seam cannot be pickled; "
                "define a module-level worker function",
            )
        elif isinstance(worker, ast.Name) and worker.id in nested_defs:
            yield self.finding(
                module,
                worker,
                f"nested function {worker.id!r} passed across the executor "
                "seam cannot be pickled; move it to module level",
            )
        elif isinstance(worker, ast.Attribute) and isinstance(
            worker.value, ast.Name
        ) and worker.value.id in ("self", "cls"):
            yield self.finding(
                module,
                worker,
                f"bound method {worker.value.id}.{worker.attr} passed across "
                "the executor seam pickles the whole instance (or fails); "
                "use a module-level function taking the state explicitly",
            )

    def _nested_function_names(self, tree: ast.Module) -> frozenset[str]:
        """Names of functions defined inside another function."""
        nested: set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(inner.name)
        return frozenset(nested)
    # Note: methods of classes defined at module level are *not* nested —
    # ast.walk from a FunctionDef only reaches defs inside that function.
