"""Smoke-test the lint engine against its own fixture corpus.

CI (and anyone touching ``repro.lint``) runs this to prove the shipped
checker set still produces *exactly* the expected findings over
``tests/lint_fixtures/`` — every firing fixture its precise per-rule
count, every clean and suppressed fixture zero findings with zero
hygiene residue.  A checker that silently stops firing (or starts
over-firing) fails here with a one-line diff per fixture, before any
real tree is linted with it.

Usage: ``PYTHONPATH=src python scripts/lint_selftest.py``
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.lint import run_lint

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "lint_fixtures"

#: case -> exact per-rule finding counts in strict mode (empty: silent).
EXPECTED: dict[str, dict[str, int]] = {
    "rl000_clean.py": {},
    "rl000_firing.py": {"RL000": 2},
    "rl001_clean.py": {},
    "rl001_firing.py": {"RL001": 1},
    "rl001_suppressed.py": {},
    "rl002_clean.py": {},
    "rl002_firing.py": {"RL002": 3},
    "rl002_suppressed.py": {},
    "rl003_clean.py": {},
    "rl003_firing.py": {"RL003": 2},
    "rl003_firing_marked.py": {"RL003": 2},
    "rl003_suppressed.py": {},
    "rl004_clean": {},
    "rl004_firing": {"RL004": 4},
    "rl004_suppressed": {},
    "rl005_clean.py": {},
    "rl005_firing.py": {"RL005": 4},
    "rl005_suppressed.py": {},
    "rl006_clean": {},
    "rl006_firing": {"RL006": 1},
    "rl006_suppressed": {},
    "rl007_clean.py": {},
    "rl007_firing.py": {"RL007": 2},
    "rl007_suppressed.py": {},
    "rl008_clean.py": {},
    "rl008_firing.py": {"RL008": 2},
    "rl008_suppressed.py": {},
    "rl009_clean.py": {},
    "rl009_firing.py": {"RL009": 3},
    "rl009_suppressed.py": {},
    "rl010_clean.py": {},
    "rl010_firing.py": {"RL010": 2},
    "rl010_suppressed.py": {},
}


def deploy(case: Path, root: Path) -> None:
    """Materialise one fixture (file or directory) under ``root``."""
    (root / "src" / "repro").mkdir(parents=True)  # the repo-root marker
    files = [case] if case.is_file() else sorted(case.glob("*.py"))
    for file in files:
        text = file.read_text(encoding="utf-8")
        header = text.splitlines()[0]
        if not header.startswith("# dest:"):
            raise SystemExit(f"{file} lacks a '# dest:' header")
        dest = root / header.split(":", 1)[1].strip()
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text, encoding="utf-8")


def lint_counts(case: Path) -> dict[str, int]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        deploy(case, root)
        result = run_lint([root], root=root)
        return dict(Counter(f.rule for f in result.reportable(strict=True)))


def main() -> int:
    cases = sorted(
        path.name for path in FIXTURES.iterdir() if path.name != "__pycache__"
    )
    missing = sorted(set(cases) - set(EXPECTED))
    untracked = sorted(set(EXPECTED) - set(cases))
    failures = []
    if missing:
        failures.append(f"fixtures without an expected-count entry: {missing}")
    if untracked:
        failures.append(f"expected-count entries without a fixture: {untracked}")
    for case in cases:
        if case not in EXPECTED:
            continue
        actual = lint_counts(FIXTURES / case)
        expected = EXPECTED[case]
        status = "ok" if actual == expected else "MISMATCH"
        print(f"{case:28s} expected={expected or '{}'} actual={actual or '{}'} {status}")
        if actual != expected:
            failures.append(f"{case}: expected {expected}, got {actual}")
    if failures:
        print("\nlint_selftest: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nlint_selftest: {len(cases)} fixtures, all counts exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
