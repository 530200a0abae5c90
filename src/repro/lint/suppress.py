"""Inline suppressions: ``# repro-lint: disable=RL001(reason)``.

A suppression silences one rule on one line — never a file, never a
directory — and must name its reason in parentheses, so every silenced
finding documents *why* the invariant does not apply.  Suppressions are
themselves checked: one that silences nothing (the code was fixed, the
rule changed, the line moved) is stale and reported as :data:`META_RULE`,
as is one missing its reason.  The suppression mechanism can therefore
never rot into a pile of dead annotations.

Grammar (one comment, any number of rules)::

    # repro-lint: disable=RL003(cache-miss fill is bounded by misses)
    # repro-lint: disable=RL001(reason one),RL005(reason two)

Reasons may not contain parentheses; keep them to one clause.
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO

from repro.lint.findings import Finding

#: Rule id for suppression-hygiene findings (stale / reason-less).
META_RULE = "RL000"

_COMMENT_RE = re.compile(r"#\s*repro-lint:\s*disable=(?P<items>.+?)\s*$")
_ITEM_RE = re.compile(r"(?P<rule>RL\d{3})(?:\((?P<reason>[^()]*)\))?")


@dataclass
class Suppression:
    """One ``RLxxx(reason)`` item on one source line."""

    rule: str
    reason: str
    line: int
    col: int
    #: Set by the driver when the suppression silenced at least one finding.
    used: bool = field(default=False, compare=False)


class SuppressionTable:
    """Every suppression in one file, indexed by (line, rule)."""

    def __init__(self, items: list[Suppression]) -> None:
        self._items = items
        self._by_line_rule: dict[tuple[int, str], Suppression] = {
            (item.line, item.rule): item for item in items
        }

    @classmethod
    def from_source(cls, source: str) -> SuppressionTable:
        """Parse a file's comments for suppression items.

        Comments are found with :mod:`tokenize` (not a regex over raw
        lines), so a ``# repro-lint:`` sequence inside a string literal is
        never mistaken for a suppression.
        """
        items: list[Suppression] = []
        try:
            for token in tokenize.generate_tokens(StringIO(source).readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = _COMMENT_RE.search(token.string)
                if match is None:
                    continue
                line, col = token.start
                for item in _ITEM_RE.finditer(match.group("items")):
                    items.append(
                        Suppression(
                            rule=item.group("rule"),
                            reason=(item.group("reason") or "").strip(),
                            line=line,
                            col=col,
                        )
                    )
        except (tokenize.TokenError, SyntaxError):
            # A file tokenize cannot finish: an unterminated construct
            # (TokenError) or a dedent to no enclosing level
            # (IndentationError) — a broken .py file the AST pass already
            # reported, or a non-Python file a cross-file finding points
            # at, such as the docs catalog.  The comments tokenised before
            # the failure still count.
            pass
        return cls(items)

    def match(self, finding: Finding) -> Suppression | None:
        """The suppression covering ``finding``, if any (marks it used)."""
        suppression = self._by_line_rule.get((finding.line, finding.rule))
        if suppression is not None and suppression.reason:
            suppression.used = True
            return suppression
        return None

    def hygiene_findings(self, path: str) -> list[Finding]:
        """Meta findings: reason-less and stale (unused) suppressions."""
        findings = []
        for item in self._items:
            if not item.reason:
                findings.append(
                    Finding(
                        path=path,
                        line=item.line,
                        col=item.col,
                        rule=META_RULE,
                        message=f"suppression of {item.rule} carries no reason",
                        hint=(
                            f"write `# repro-lint: disable={item.rule}"
                            "(why the invariant does not apply)`"
                        ),
                    )
                )
            elif not item.used:
                findings.append(
                    Finding(
                        path=path,
                        line=item.line,
                        col=item.col,
                        rule=META_RULE,
                        message=f"suppression of {item.rule} silences nothing (stale)",
                        hint="the violation is gone or moved; delete the comment",
                    )
                )
        return sorted(findings)
