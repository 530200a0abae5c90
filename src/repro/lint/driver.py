"""The lint driver: discover, parse, check, suppress, report.

One run:

1. expand the target paths to ``.py`` files (directories walked
   recursively, ``__pycache__``/hidden directories skipped);
2. locate the repository root (the nearest ancestor carrying
   ``src/repro``) so findings and scopes use stable repo-relative paths;
3. parse each file and run every in-scope per-file checker; a file that
   cannot be read or parsed yields a structured :data:`PARSE_RULE`
   finding instead of aborting the run;
4. run the cross-file checkers once;
5. filter findings through the inline suppression tables, collecting
   suppression-hygiene findings (reason-less / stale) along the way;
6. render text (or ``--json``) and choose the exit code.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage errors or an
internal crash of the linter itself.  A syntax error in a *linted* file
is a finding (``RL099``), not a crash — one broken file must never hide
the findings in the rest of the tree.  In ``--strict`` mode suppression
hygiene counts as findings — the mode CI runs, so a stale suppression
can never linger.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.lint.base import Checker, FileContext, ProjectContext
from repro.lint.checkers import all_checkers
from repro.lint.findings import Finding
from repro.lint.suppress import META_RULE, SuppressionTable

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".ruff_cache", ".mypy_cache"}

#: Rule id for files the driver could not read or parse.  These are
#: findings like any other (exit 1, suppressible in principle) — a tree
#: with an unparseable file is not clean, but the rest of the tree still
#: gets linted.
PARSE_RULE = "RL099"
PARSE_TITLE = "every linted file is readable, UTF-8 and syntactically valid"


@dataclass
class LintResult:
    """Everything one run produced, before rendering."""

    findings: list[Finding]
    hygiene: list[Finding]
    checked_files: int

    def reportable(self, strict: bool) -> list[Finding]:
        chosen = list(self.findings)
        if strict:
            chosen.extend(self.hygiene)
        return sorted(chosen)

    @property
    def parse_errors(self) -> list[Finding]:
        """The :data:`PARSE_RULE` findings (unreadable/unparseable files)."""
        return [finding for finding in self.findings if finding.rule == PARSE_RULE]


def find_repo_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` containing ``src/repro`` (else CWD)."""
    probe = start if start.is_dir() else start.parent
    for candidate in [probe, *probe.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return Path.cwd()


def discover_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            found.add(path.resolve())
        elif path.is_dir():
            for child in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in child.parts):
                    found.add(child.resolve())
    return sorted(found)


def _parse_finding(rel: str, error: SyntaxError) -> Finding:
    return Finding(
        path=rel,
        line=error.lineno or 0,
        col=max((error.offset or 1) - 1, 0),
        rule=PARSE_RULE,
        message=f"syntax error: {error.msg}",
        hint="fix the syntax; no rules ran on this file",
    )


def _read_finding(rel: str, reason: str) -> Finding:
    return Finding(
        path=rel,
        line=0,
        col=0,
        rule=PARSE_RULE,
        message=reason,
        hint="make the file readable UTF-8 (or exclude it from the lint targets)",
    )


def _dedup(findings: list[Finding]) -> list[Finding]:
    """Drop duplicate findings (same location/rule/message).

    RL010 reports an ``await`` inside a nested ``finally:`` once per
    enclosing ``finally`` body; the copies carry identical payloads, so
    equality on the compare fields is the right identity.
    """
    return sorted(set(findings))


def run_lint(
    paths: list[Path],
    checkers: list[Checker] | None = None,
    root: Path | None = None,
) -> LintResult:
    """Lint ``paths`` with ``checkers`` (default: the shipped set)."""
    if checkers is None:
        checkers = all_checkers()
    files = discover_files(paths)
    if root is None:
        root = find_repo_root(files[0] if files else Path.cwd())
    root = root.resolve()
    project = ProjectContext(root)

    raw_findings: list[Finding] = []
    linted_rels: list[str] = []
    sources: dict[str, str] = {}
    for path in files:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            source = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as error:
            raw_findings.append(
                _read_finding(rel, f"file is not valid UTF-8 ({error.reason})")
            )
            continue
        except OSError as error:
            raw_findings.append(
                _read_finding(rel, f"file could not be read ({error.strerror})")
            )
            continue
        sources[rel] = source
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            raw_findings.append(_parse_finding(rel, error))
            continue
        linted_rels.append(rel)
        context = FileContext(root, path, source, tree)
        project.add(context)
        for checker in checkers:
            if checker.scope and checker.in_scope(rel):
                raw_findings.extend(checker.check(context))

    for checker in checkers:
        raw_findings.extend(checker.finalize(project))
    raw_findings = _dedup(raw_findings)

    # Suppression pass: parse each implicated file's table once, filter the
    # findings through it, then collect hygiene findings for *linted* files
    # (files merely read by cross-file checkers are not this run's targets).
    tables: dict[str, SuppressionTable | None] = {}

    def table_for(rel: str) -> SuppressionTable | None:
        if rel not in tables:
            text = sources.get(rel)
            if text is None:
                text = project.read_text(rel)
            tables[rel] = SuppressionTable.from_source(text) if text else None
        return tables[rel]

    kept: list[Finding] = []
    for finding in raw_findings:
        table = table_for(finding.path)
        if table is None or table.match(finding) is None:
            kept.append(finding)

    hygiene: list[Finding] = []
    for rel in linted_rels:
        table = table_for(rel)
        if table is not None:
            hygiene.extend(table.hygiene_findings(rel))

    return LintResult(
        findings=sorted(kept),
        hygiene=sorted(hygiene),
        checked_files=len(linted_rels),
    )


# -- CLI ---------------------------------------------------------------------


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint flag set, shared verbatim by ``python -m repro.lint`` and
    ``repro.cli lint`` so the two entry points can never drift apart."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "scripts"],
        help="files or directories to lint (default: src scripts)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on suppression hygiene (missing reasons, stale suppressions)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as a JSON document on stdout",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all shipped rules)",
    )


def _select_checkers(rules: str | None) -> list[Checker] | str:
    """The requested checker instances, or an error message."""
    checkers = all_checkers()
    if not rules:
        return checkers
    wanted = {rule.strip().upper() for rule in rules.split(",") if rule.strip()}
    unknown = wanted - {checker.rule for checker in checkers}
    if unknown:
        return f"unknown rule ids: {', '.join(sorted(unknown))}"
    return [checker for checker in checkers if checker.rule in wanted]


def run_from_args(args: argparse.Namespace) -> int:
    """Execute one lint invocation; never raises (internal errors exit 2)."""
    try:
        return _run(args)
    except Exception:  # pragma: no cover - the exit-2 backstop
        traceback.print_exc()
        print("repro.lint: internal error (traceback above)", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    checkers = _select_checkers(args.rules)
    if isinstance(checkers, str):
        print(f"repro.lint: {checkers}", file=sys.stderr)
        return 2

    paths = [Path(path) for path in args.paths]
    probe = next((path.resolve() for path in paths if path.exists()), Path.cwd())
    result = run_lint(paths, checkers, root=find_repo_root(probe))
    reportable = result.reportable(args.strict)

    if args.as_json:
        rules = {checker.rule: checker.title for checker in checkers}
        rules[META_RULE] = "suppressions carry reasons and silence something"
        rules[PARSE_RULE] = PARSE_TITLE
        document = {
            "checked_files": result.checked_files,
            "strict": args.strict,
            "rules": rules,
            "findings": [finding.to_dict() for finding in reportable],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for finding in reportable:
            print(finding.render())
        print(
            f"repro.lint: {result.checked_files} files checked, "
            f"{len(reportable)} finding(s)",
            file=sys.stderr,
        )
    return 1 if reportable else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.lint``; ``repro.cli lint`` shares
    the argument set through :func:`add_lint_arguments`)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST- and flow-based invariant checks for this repository's contracts",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
