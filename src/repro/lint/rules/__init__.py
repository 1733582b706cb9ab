"""Built-in lint rules; importing this package fills the rule registry.

The registry (:mod:`repro.lint.registry`) is fixed: exactly the rules
instantiated below, keyed by id, are what ``repro lint`` and
:func:`repro.lint.lint_paths` draw from.
"""

from __future__ import annotations

from ..registry import _REGISTRY
from . import exports, layering, ordering, rng, seams, telemetry
from .exports import ExportIntegrityRule
from .layering import ImportLayeringRule
from .ordering import IterationOrderRule
from .rng import AmbientRandomnessRule, GeneratorThreadingRule
from .seams import SeamThreadingRule
from .telemetry import CounterNamingRule

_REGISTRY.update(
    (rule.rule_id, rule)
    for rule in (
        AmbientRandomnessRule(),
        GeneratorThreadingRule(),
        IterationOrderRule(),
        CounterNamingRule(),
        ImportLayeringRule(),
        SeamThreadingRule(),
        ExportIntegrityRule(),
    )
)

__all__ = [
    "AmbientRandomnessRule",
    "CounterNamingRule",
    "ExportIntegrityRule",
    "GeneratorThreadingRule",
    "ImportLayeringRule",
    "IterationOrderRule",
    "SeamThreadingRule",
    "exports",
    "layering",
    "ordering",
    "rng",
    "seams",
    "telemetry",
]
