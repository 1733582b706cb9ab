"""Built-in lint rules; importing this package fills the rule registry.

The registry (:mod:`repro.lint.registry`) is fixed: exactly the rules
instantiated below, keyed by id, are what ``repro lint`` and
:func:`repro.lint.run_lint` draw from.
"""

from __future__ import annotations

from ..registry import _REGISTRY
from . import layering, ordering, rng, seams, telemetry
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
    )
)

__all__ = [
    "AmbientRandomnessRule",
    "CounterNamingRule",
    "GeneratorThreadingRule",
    "ImportLayeringRule",
    "IterationOrderRule",
    "SeamThreadingRule",
    "layering",
    "ordering",
    "rng",
    "seams",
    "telemetry",
]
