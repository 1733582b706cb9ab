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
construction guarded by an ``if rng is None`` test is sanctioned).  A
nested function is its own scope: it is judged by its own parameters.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import Function
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
        for node, name, _ in module.index.calls:
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
        # Each call is judged in its nearest enclosing def only: a nested
        # function is its own scope, with its own parameters.
        for node, name, scope in module.index.calls:
            if name is None or not name.endswith(_CONSTRUCTOR_SUFFIXES):
                continue
            if scope is None or scope.name.startswith("_"):
                continue
            args = scope.args
            rng_params = _RNG_PARAM_NAMES.intersection(
                arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            )
            if not rng_params or self._guarded_by_none_check(module, node, scope, rng_params):
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
        self,
        module: SourceModule,
        node: ast.Call,
        scope: Function,
        rng_params: frozenset[str],
    ) -> bool:
        """Whether the construction sits under an ``if <rng> is None`` guard.

        The sanctioned default-construction idiom: ``if rng is None: rng =
        RandomSource(seed)`` (or the equivalent conditional expression).
        Any ``if``/ternary inside ``scope`` whose test mentions the rng
        parameter counts.
        """
        index = module.index
        tests: list[ast.expr] = []
        current = index.parents[node]
        while current is not scope:
            if isinstance(current, (ast.If, ast.IfExp)):
                tests.append(current.test)
            current = index.parents[current]
        return any(
            name.id in rng_params and index.within(name, tests)
            for name, function in index.names
            if function is scope
        )
