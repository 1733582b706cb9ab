"""CTX001: seam kwargs must be threaded through the call graph explicitly.

The recurring cross-file bug class in this codebase: a function accepts one
of the cross-cutting seam parameters (``rng``, ``jobs``, ``executor``,
``model``, ``telemetry``, ``batch_mode``, ``context`` — the :data:`SEAMS`
constant) and calls a callee that *also* accepts it, but
silently drops it — the callee falls back to its default and one layer of
the stack runs unseeded / serial / unobserved.  PRs 3, 7, and 8 each fixed
hand-found instances; this rule finds them statically.

A seam counts as forwarded when the call passes it as a keyword, covers its
position with positional arguments, or uses ``*args``/``**kwargs`` (which
the analysis cannot see through — conservative, no finding).  Call targets
are resolved through the project call graph
(:meth:`~repro.lint.project.ProjectAnalysis.resolve_callable`), so only
calls to statically known project functions are judged.

Deliberate drops — a callee that must *not* inherit the caller's seam — are
suppressed inline with a reason (``# repro-lint: allow[CTX001] reason``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..project import CallSite, FunctionInfo, ProjectAnalysis

__all__ = ["SEAMS", "SeamThreadingRule"]

#: Seam parameters CTX001 tracks: the cross-cutting execution knobs every
#: layer threads through.
SEAMS: tuple[str, ...] = (
    "batch_mode",
    "context",
    "executor",
    "jobs",
    "model",
    "rng",
    "telemetry",
)


class SeamThreadingRule(ProjectRule):
    """CTX001: a seam parameter dropped between caller and callee."""

    rule_id = "CTX001"
    summary = (
        "function accepts a seam parameter but drops it when calling a "
        "callee that also accepts it"
    )

    def check(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        for summary in project.modules.values():
            for info in sorted(
                summary.functions.values(), key=lambda f: f.line
            ):
                held = [s for s in SEAMS if s in info.parameters]
                if not held:
                    continue
                for call in info.calls:
                    resolved = project.resolve_callable(
                        summary.name, call.callee
                    )
                    if resolved is None:
                        continue
                    callee_module, callee = resolved
                    for seam in held:
                        if self._dropped(seam, call, callee):
                            yield self.finding(
                                summary.path,
                                call,
                                f"{info.qualname} accepts seam {seam!r} but "
                                f"its call to {callee_module.name}."
                                f"{callee.qualname} (which also accepts "
                                f"{seam!r}) does not forward it",
                            )

    @staticmethod
    def _dropped(seam: str, call: "CallSite", callee: "FunctionInfo") -> bool:
        positional = (
            callee.positional[1:] if callee.is_method else callee.positional
        )
        if seam not in positional and seam not in callee.keyword_only:
            return False
        if seam in call.keywords:
            return False
        if call.has_star_kwargs or call.has_star_args:
            return False  # cannot see through star expansion: stay silent
        if seam in positional and positional.index(seam) < call.num_positional:
            return False  # covered positionally
        return True
