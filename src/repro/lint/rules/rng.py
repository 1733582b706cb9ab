"""Randomness rules: RNG001 (ambient randomness), RNG002 (generator threading).

The repository's determinism contract routes every draw through an
explicitly seeded generator (:class:`repro.diffusion.random_source.RandomSource`
or a ``numpy.random.Generator`` derived by the runtime's split-stream
seeding).  RNG001 flags ambient randomness — stdlib ``random`` calls, the
legacy ``numpy.random.*`` global-state functions, and
``default_rng()``/``default_rng(<constant>)`` — outside the two sanctioned
modules.  RNG002 flags public functions that *accept* an ``rng``/``generator``
parameter and then construct a fresh generator in their body anyway: every
draw in such a function must come from the threaded parameter (a fallback
construction guarded by an ``if rng is None`` test is sanctioned).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import call_name
from ..findings import Finding
from ..registry import LintRule
from ..walker import SourceModule

__all__ = ["AmbientRandomnessRule", "GeneratorThreadingRule"]

#: Parameter names that mark a function as generator-threaded.
_RNG_PARAM_NAMES: frozenset[str] = frozenset({"rng", "generator"})

#: Call-name suffixes that construct a fresh generator.
_CONSTRUCTOR_SUFFIXES: tuple[str, ...] = (
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "random.Random",
    "RandomSource",
)


def _is_constant_expr(node: ast.expr) -> bool:
    """Whether an expression is a literal constant (incl. unary +/- forms)."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return isinstance(node.operand, ast.Constant)
    return False


class AmbientRandomnessRule(LintRule):
    """RNG001: no ambient randomness outside the sanctioned modules."""

    rule_id = "RNG001"
    summary = (
        "ambient randomness (stdlib random, numpy.random globals, argless or "
        "constant-seeded default_rng) outside random_source.py / runtime/seeding.py"
    )
    exempt_fragments = (
        "repro/diffusion/random_source.py",
        "repro/runtime/seeding.py",
        "/tests/",
        "tests/conftest",
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, module.aliases)
            if name is None:
                continue
            if name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"stdlib random call {name}() draws from ambient global "
                    "state; thread a seeded numpy Generator instead",
                )
            elif name.startswith("numpy.random."):
                leaf = name.rsplit(".", 1)[-1]
                if leaf == "default_rng":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module,
                            node,
                            "default_rng() without a seed is entropy-seeded "
                            "and unreproducible; derive the generator from "
                            "the run seed",
                        )
                    elif node.args and _is_constant_expr(node.args[0]):
                        yield self.finding(
                            module,
                            node,
                            "default_rng(<constant>) hard-codes a seed; "
                            "accept the seed as a parameter so runs stay "
                            "reproducible and controllable",
                        )
                elif leaf.islower():
                    # Lowercase numpy.random attributes are the legacy
                    # module-level draw functions sharing one hidden global
                    # RandomState (classes like SeedSequence are capitalized).
                    yield self.finding(
                        module,
                        node,
                        f"numpy.random.{leaf}() uses the hidden global "
                        "RandomState; use an explicitly seeded Generator",
                    )


class GeneratorThreadingRule(LintRule):
    """RNG002: functions taking an rng/generator must not build a fresh one."""

    rule_id = "RNG002"
    summary = (
        "public function naming an rng/generator parameter constructs a fresh "
        "generator in its body instead of threading the parameter"
    )
    exempt_fragments = ("/tests/", "tests/conftest")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if scope.name.startswith("_"):
                continue
            params = {
                arg.arg
                for arg in [
                    *scope.args.posonlyargs,
                    *scope.args.args,
                    *scope.args.kwonlyargs,
                ]
            }
            rng_params = params & _RNG_PARAM_NAMES
            if not rng_params:
                continue
            yield from self._check_body(module, scope, rng_params)

    def _check_body(
        self,
        module: SourceModule,
        scope: ast.FunctionDef | ast.AsyncFunctionDef,
        rng_params: set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Nested functions are separate scopes checked on their own.
                continue
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, module.aliases)
            if name is None or not name.endswith(_CONSTRUCTOR_SUFFIXES):
                continue
            if self._guarded_by_none_check(module, node, rng_params):
                continue
            param = ", ".join(sorted(rng_params))
            yield self.finding(
                module,
                node,
                f"{scope.name}() accepts {param!r} but constructs a fresh "
                f"generator via {name.rsplit('.', 1)[-1]}(); every draw must "
                "come from the threaded parameter",
            )

    def _guarded_by_none_check(
        self, module: SourceModule, node: ast.Call, rng_params: set[str]
    ) -> bool:
        """Whether the construction sits under an ``if <rng> is None`` guard.

        The sanctioned default-construction idiom: ``if rng is None: rng =
        RandomSource(seed)`` (or the equivalent conditional expression).
        Any ``if``/ternary whose test mentions the rng parameter counts.
        """
        current: ast.AST | None = node
        while current is not None:
            parent = module.parents.get(current)
            if isinstance(parent, (ast.If, ast.IfExp)):
                test_names = {
                    child.id
                    for child in ast.walk(parent.test)
                    if isinstance(child, ast.Name)
                }
                if test_names & rng_params:
                    return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            current = parent
        return False
