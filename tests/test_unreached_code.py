"""Regrowth guard: every public function in ``src/repro`` is reached.

A public top-level ``def`` under ``src/repro`` counts as reached when its
name appears in the code of another file under ``src/``, ``benchmarks/``
or ``examples/``, or elsewhere in its own module's code.  Comments and
docstrings do not count, nor do re-exports:
every module's ``__all__`` is skipped, and so are the imports and
``_EXPORTS`` of ``__init__.py`` files.  Tests do not count either, so a function
that only its own tests call fails here.  The match is by name, so a
function reached only through string dispatch needs its name written out
somewhere in code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USE_DIRECTORIES = ("src", "benchmarks", "examples")

#: Functions no workload reaches that stay on purpose, each with its reason.
KEPT_UNREACHED = {
    "snapshot_sample_bound": "Table 1 theory: Snapshot's worst-case tau",
    "ris_weight_bound": "Table 1 theory: Borgs et al.'s RR-set weight threshold",
    "monte_carlo_spread_bound": "Table 1 theory: simulations per spread value",
    "greedy_approximation_factor": "Table 1 theory: greedy's factor over a noisy oracle",
    "entropy_convergence_point": "Figure 1's convergence point (paper finding 1)",
    "entropy_scaling_factor": "Figure 1's x2^4 scaling (paper finding 2)",
    "empirical_cost_ratios": "Section 5.3's 1 : m~/m : 1/n relation over Table 8 rows",
    "lt_reachable_set": "test_models' reference for LTSnapshot.to_snapshot",
    "make_estimator": "pre-redesign factory pinned by tests/api/test_legacy_surface.py",
    "read_trace": "the only reader of the JSONL trace that --trace/REPRO_TRACE writes",
    "validate_trace": "CI's telemetry trace smoke validates a real --trace file with it",
}

#: Token types whose text is string-literal content (3.12 splits f-strings).
_STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _pinned_exports() -> frozenset[str]:
    """``PRE_REDESIGN_EXPORTS`` from the legacy-surface test, read statically."""
    tree = ast.parse((ROOT / "tests" / "api" / "test_legacy_surface.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "PRE_REDESIGN_EXPORTS"
            for target in node.targets
        ):
            return frozenset(ast.literal_eval(node.value))
    raise AssertionError("PRE_REDESIGN_EXPORTS not found")


def _reexport_lines(tree: ast.Module, package_init: bool) -> set[int]:
    """Line numbers of a module's ``__all__``, plus a package ``__init__``'s
    imports and ``_EXPORTS``."""
    names = {"__all__", "_EXPORTS"} if package_init else {"__all__"}
    lines: set[int] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if (package_init and isinstance(node, (ast.Import, ast.ImportFrom))) or any(
            isinstance(target, ast.Name) and target.id in names for target in targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _words(source: str, tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, word)`` for every identifier-like word in the code of ``source``.

    Names count, and so do words inside string literals (string dispatch);
    comments and docstrings do not.
    """
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    words = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            words.append((token.start[0], token.string))
        elif token.type in _STRING_TOKENS and token.start not in docstrings:
            words.extend((token.start[0], word) for word in re.findall(r"\w+", token.string))
    return words


@cache
def _unreached() -> tuple[str, ...]:
    """``module:function`` for every public function nothing else names."""
    trees, words, skipped, files_naming = {}, {}, {}, defaultdict(set)
    for directory in USE_DIRECTORIES:
        for path in sorted((ROOT / directory).rglob("*.py")):
            source = path.read_text()
            trees[path] = ast.parse(source)
            words[path] = _words(source, trees[path])
            skipped[path] = _reexport_lines(trees[path], path.name == "__init__.py")
            for line, word in words[path]:
                if line not in skipped[path]:
                    files_naming[word].add(path)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = skipped[path] | set(range(first, node.end_lineno + 1))
            named_in_module = any(
                word == node.name and line not in outside for line, word in words[path]
            )
            named_elsewhere = files_naming[node.name] - {path}
            if not named_elsewhere and not named_in_module:
                found.append(f"{path.relative_to(PACKAGE)}:{node.name}")
    return tuple(found)


def test_every_public_function_is_reached():
    exempt = _pinned_exports() | set(KEPT_UNREACHED)
    unreached = [entry for entry in _unreached() if entry.split(":")[1] not in exempt]
    assert unreached == [], (
        "public functions that nothing in src/, benchmarks/ or examples/ uses; "
        "delete them with their tests, or justify them in KEPT_UNREACHED: "
        + ", ".join(unreached)
    )


def test_kept_exemptions_are_still_needed():
    unreached_names = {entry.split(":")[1] for entry in _unreached()}
    stale = sorted(set(KEPT_UNREACHED) - unreached_names)
    assert stale == [], f"KEPT_UNREACHED names that are now reached or gone: {stale}"
