"""Shared linter exception types.

Lives in its own module so the config loader, walker, and CLI can
all raise :class:`LintError` without import cycles.
"""

from __future__ import annotations

__all__ = ["LintError"]


class LintError(Exception):
    """Usage-level linter failure (unknown rule, missing path, bad config):
    CLI exit code 2."""
