"""Regrowth guard: every public function in ``src/repro`` is reached.

A public top-level ``def`` under ``src/repro`` (the linter package aside)
counts as reached when its name appears in another file under ``src/``,
``benchmarks/`` or ``examples/``, or elsewhere in its own module.
Re-exports do not count: the imports, ``__all__`` and ``_EXPORTS`` of
``__init__.py`` files are skipped.  Tests do not count either, so a function
that only its own tests call fails here.  The match is by name, so a
function reached only through string dispatch needs its name written out
somewhere in code.
"""

from __future__ import annotations

import ast
import re
from collections import Counter, defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USE_DIRECTORIES = ("src", "benchmarks", "examples")
REEXPORT_NAMES = {"__all__", "_EXPORTS"}

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
}


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


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Line numbers of a package ``__init__``'s imports and export lists."""
    lines: set[int] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if isinstance(node, (ast.Import, ast.ImportFrom)) or any(
            isinstance(target, ast.Name) and target.id in REEXPORT_NAMES
            for target in targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _words(source: str, skipped: set[int]) -> Counter[str]:
    """Identifier-like words of ``source`` outside the ``skipped`` lines."""
    return Counter(
        word
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skipped
        for word in re.findall(r"\w+", line)
    )


@cache
def _unreached() -> tuple[str, ...]:
    """``module:function`` for every public function nothing else names."""
    sources, skipped, files_naming = {}, {}, defaultdict(set)
    for directory in USE_DIRECTORIES:
        for path in sorted((ROOT / directory).rglob("*.py")):
            sources[path] = path.read_text()
            tree = ast.parse(sources[path])
            skipped[path] = _reexport_lines(tree) if path.name == "__init__.py" else set()
            for word in _words(sources[path], skipped[path]):
                files_naming[word].add(path)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if PACKAGE / "lint" in path.parents:
            continue
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own_body = set(range(first, node.end_lineno + 1))
            own_words = _words(sources[path], skipped[path] | own_body)
            named_elsewhere = files_naming[node.name] - {path}
            if not named_elsewhere and not own_words[node.name]:
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
