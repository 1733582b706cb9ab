"""Fixture: an IMP001 violation silenced by an inline suppression."""

import numpy  # repro-lint: allow[IMP001] fixture keeps one sanctioned exception

__all__ = ["numpy"]
