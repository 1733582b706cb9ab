"""Suppression comments: line-scoped ``allow[...]``.

``# repro-lint: allow[RULE-ID] reason`` silences the named rule(s) on the
line it is written on (matching the finding's reported line); when the
comment is a standalone line it applies to the next code line instead, so
long reasons need not fight the line-length limit.

The id list is comma-separated (``allow[RNG001, ORD001]``) and everything
after the closing bracket is the reason — the self-clean gate expects every
in-tree suppression to say *why* the contract does not apply at that site.

Suppression hygiene is itself checked: an entry whose rule never fired on
its line, or that names an id the run does not know, is reported as
``SUP001``, so stale suppressions cannot hide future regressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

__all__ = ["Suppression", "collect_suppressions"]

_ALLOW_PATTERN = re.compile(r"repro-lint:\s*allow\[([^\]]*)\]")


@dataclass
class Suppression:
    """One ``allow[...]`` entry pinned to the line it covers."""

    line: int
    column: int
    rule_id: str
    #: Set by the walker when a finding of ``rule_id`` is silenced by this.
    used: bool = False


def collect_suppressions(text: str) -> list[Suppression]:
    """Parse all suppression entries from ``text``'s comments.

    Comments are located with :mod:`tokenize` (never matched inside string
    literals).  Unparseable or empty ``allow[...]`` bodies yield entries
    with an empty ``rule_id`` so the hygiene check can report them.

    An ``allow`` in a trailing comment pins to its own line; in a
    standalone comment (nothing but the comment on the line) it pins to the
    next line holding code, so a block of standalone comments above a call
    covers that call.

    Text without ``repro-lint`` anywhere cannot hold an entry, so it is
    never tokenized.
    """
    if "repro-lint" not in text:
        return []
    suppressions: list[Suppression] = []
    #: Entries from standalone comments, waiting for the next
    #: code token to tell them which line they cover.
    pending: list[Suppression] = []
    code_lines: set[int] = set()
    _NONCODE = frozenset(
        {
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        }
    )
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _NONCODE:
                code_lines.add(token.start[0])
                if pending:
                    for suppression in pending:
                        suppression.line = token.start[0]
                    suppressions.extend(pending)
                    pending.clear()
                continue
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_PATTERN.search(token.string)
            if match is None:
                continue
            line, column = token.start
            standalone = line not in code_lines
            ids = [part.strip() for part in match.group(1).split(",")]
            ids = [part for part in ids if part] or [""]
            for rule_id in ids:
                entry = Suppression(line=line, column=column, rule_id=rule_id)
                if standalone:
                    pending.append(entry)
                else:
                    suppressions.append(entry)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    # Standalone comments with no code after them keep their own line so the
    # hygiene check can still report them as unused.
    suppressions.extend(pending)
    suppressions.sort(key=lambda s: (s.line, s.column))
    return suppressions
