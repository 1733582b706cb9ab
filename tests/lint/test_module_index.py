"""The one-pass module index: walk counts and the scopes ORD001 reads.

Every linted module is expanded once, by :class:`repro.lint.astutil.ModuleIndex`;
the per-module rules and the call-graph summary read the index instead of
walking the tree again.  The scope cases pin which
set-typedness tracker ORD001 consults for nodes inside nested functions,
lambdas, class bodies and at module level.
"""

from __future__ import annotations

import ast
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_each_node_is_expanded_once_per_run(monkeypatch):
    # ast.walk expands a node through ast.iter_child_nodes, an
    # ast.NodeVisitor through generic_visit; count both, per node.
    expanded: Counter[ast.AST] = Counter()
    iter_child_nodes = ast.iter_child_nodes
    generic_visit = ast.NodeVisitor.generic_visit

    def counted_children(node):
        expanded[node] += 1
        return iter_child_nodes(node)

    def counted_visit(self, node):
        expanded[node] += 1
        return generic_visit(self, node)

    monkeypatch.setattr(ast, "iter_child_nodes", counted_children)
    monkeypatch.setattr(ast.NodeVisitor, "generic_visit", counted_visit)
    run = run_lint([FIXTURES])
    assert run.stats["files"] > 10 and run.findings
    # Field-less nodes (Load, Store, operators) are single shared instances
    # in CPython trees, reached once per use; they have nothing to expand.
    counts = Counter({node: n for node, n in expanded.items() if node._fields})
    assert counts, "run_lint expanded no node"
    worst = counts.most_common(1)[0]
    assert worst[1] <= 1, ast.dump(worst[0])[:200]


_SCOPE_CASES = {
    "a nested function does not see the outer set binding": (
        """
        def outer(items):
            pool = set(items)

            def inner():
                return sum(pool)

            return inner
        """,
        [],
    ),
    "a binding in a nested function makes the outer name ambiguous": (
        """
        def outer(items):
            pool = set(items)

            def inner():
                pool = list(items)
                return pool

            return sum(pool), inner
        """,
        [],
    ),
    "a nested function's own set binding": (
        """
        def outer(items):
            def inner():
                pool = set(items)
                return sum(pool)

            return inner
        """,
        [5],
    ),
    "a lambda reads its enclosing function's bindings": (
        """
        def outer(items):
            pool = set(items)
            return lambda: sum(pool)
        """,
        [4],
    ),
    "a class body reads its enclosing function's bindings": (
        """
        def outer(items):
            pool = set(items)

            class Holder:
                total = sum(pool)

            return Holder
        """,
        [6],
    ),
    "module level and module classes know only literal sets": (
        """
        class Holder:
            pool = set(range(3))
            total = sum(pool)
            literal = list({1, 2})


        pool = set(range(3))
        total = sum(pool)
        joined = ",".join({"a", "b"})
        for item in pool:
            pass
        """,
        [5, 10],
    ),
}


@pytest.mark.parametrize("case", sorted(_SCOPE_CASES))
def test_ord001_tracker_scopes(case, tmp_path):
    source, expected_lines = _SCOPE_CASES[case]
    target = tmp_path / "scopes.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    findings = run_lint([target], rules=["ORD001"]).findings
    assert [finding.line for finding in findings] == expected_lines, [
        finding.render() for finding in findings
    ]
