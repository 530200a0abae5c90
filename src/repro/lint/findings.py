"""Structured lint findings.

Every checker reports :class:`Finding` records — one invariant violation
each, carrying the rule id, the ``file:line:col`` anchor, a one-line
message and a *fix hint* (what a developer should actually do about it).
Findings are plain data: the driver sorts, filters (suppressions) and
renders them as text or JSON without checkers knowing about output.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    #: Path of the offending file, relative to the repository root.
    path: str
    #: 1-based line of the violation (0 for whole-file findings).
    line: int
    #: 0-based column of the violation.
    col: int
    #: Rule id (``RL001`` .. ``RL006``, ``RL010``; ``RL000`` for suppression
    #: hygiene, ``RL099`` for files the driver could not read or parse).
    rule: str
    #: One-line statement of the violated invariant.
    message: str
    #: What to do about it (shown after the message, serialised in JSON).
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        """The canonical one-line text rendering."""
        location = f"{self.path}:{self.line}:{self.col}"
        text = f"{location}: {self.rule} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the ``--json`` findings document)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }
