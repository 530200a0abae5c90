"""Repo-specific static analysis: AST + flow checks for this codebase's contracts.

Generic linters see none of the invariants this repository's correctness
actually rests on — the ingest-lock discipline (PR 4), the never-block
asyncio server (PR 4), vectorized hot paths (PRs 1/5/8), registry/codec
consistency (PR 3/6), bit-identity determinism, and the telemetry catalog
(PR 7).  Each shipped rule encodes one of those contracts; most as
stdlib-``ast`` passes, and the cancellation rule (RL010) as a
*flow-sensitive* analysis over a per-function CFG (:mod:`repro.lint.cfg`)
with a worklist dataflow solver (:mod:`repro.lint.dataflow`).  Findings
carry ``file:line``, the rule id and a fix hint, and are silenced only by
an inline, reasoned, staleness-checked suppression.

Run as ``python -m repro.lint [paths] [--strict] [--json] [--rules ...]``
or ``repro.cli lint`` (identical flags, shared parser); the checker
catalog lives in ``docs/architecture.md``.
"""

from repro.lint.base import Checker, FileContext, ProjectContext
from repro.lint.checkers import all_checkers
from repro.lint.driver import (
    PARSE_RULE,
    LintResult,
    add_lint_arguments,
    main,
    run_from_args,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.suppress import META_RULE, SuppressionTable

__all__ = [
    "META_RULE",
    "PARSE_RULE",
    "Checker",
    "FileContext",
    "Finding",
    "LintResult",
    "ProjectContext",
    "SuppressionTable",
    "add_lint_arguments",
    "all_checkers",
    "main",
    "run_from_args",
    "run_lint",
]
