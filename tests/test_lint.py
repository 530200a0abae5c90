"""The lint framework: fixtures fire, clean passes, suppressions work.

Every shipped rule is proven *live* three ways, from the fixture corpus in
``tests/lint_fixtures/``:

* its ``*_firing`` fixture produces at least one finding of that rule;
* its ``*_clean`` fixture produces zero findings (of any rule);
* its ``*_suppressed`` fixture is silent **and** leaves no hygiene
  residue — the suppression is used and carries a reason.

Each fixture file (Python or Markdown) names its deploy path in a
``# dest:`` header; the harness materialises it inside a throwaway repo
root so scope patterns (``src/repro/monitor/*.py``,
``docs/architecture.md`` ...) match exactly as they do in this repository.
Cross-file rules (RL004/RL006) use fixture *directories*.

:data:`EXPECTED` pins the exact strict-mode count per rule of every
fixture, and the table and the corpus must match one-to-one.

On top of the corpus: driver behaviour (exit codes, ``--json``,
``--rules``, strict hygiene, resilience to unreadable and unparseable
files), RL010's path-dependence, CLI parity and the meta-assertion that
the fixture corpus itself is complete for every shipped rule.
"""

from __future__ import annotations

import argparse
import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    META_RULE,
    PARSE_RULE,
    add_lint_arguments,
    all_checkers,
    main,
    run_lint,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"

RULES = sorted(checker.rule for checker in all_checkers())

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
    "rl006_firing": {"RL006": 3},
    "rl006_suppressed": {},
    "rl010_clean.py": {},
    "rl010_firing.py": {"RL010": 2},
    "rl010_suppressed.py": {},
}


def _deploy(case: str, tmp_path: Path) -> Path:
    """Materialise one fixture (file or directory) in a fresh repo root."""
    root = tmp_path / "repo"
    (root / "src" / "repro").mkdir(parents=True)  # the root marker
    source = FIXTURES / case
    files = [source] if source.is_file() else sorted(
        path for path in source.iterdir() if path.is_file()
    )
    for file in files:
        text = file.read_text(encoding="utf-8")
        header = text.splitlines()[0]
        assert header.startswith("# dest:"), f"{file} lacks a '# dest:' header"
        dest = root / header.split(":", 1)[1].strip()
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text, encoding="utf-8")
    return root


def _lint(root: Path, strict: bool = True):
    result = run_lint([root], root=root)
    return result.reportable(strict)


def _cases(rule: str, kind: str) -> list[str]:
    prefix = rule.lower()
    return sorted(
        path.name for path in FIXTURES.glob(f"{prefix}_{kind}*")
    )


class TestFixtureCorpus:
    def test_expected_table_matches_the_fixtures_one_to_one(self):
        cases = {path.name for path in FIXTURES.iterdir() if path.name != "__pycache__"}
        assert sorted(cases - set(EXPECTED)) == [], "fixtures without an EXPECTED entry"
        assert sorted(set(EXPECTED) - cases) == [], "EXPECTED entries without a fixture"

    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_fixture_counts_are_exact(self, case, tmp_path):
        # A checker that silently stops firing, or starts over-firing,
        # fails here with the per-rule diff.
        findings = _lint(_deploy(case, tmp_path))
        assert dict(Counter(finding.rule for finding in findings)) == EXPECTED[case]

    def test_every_rule_has_firing_clean_and_suppressed_fixtures(self):
        for rule in RULES:
            assert _cases(rule, "firing"), f"no firing fixture for {rule}"
            assert _cases(rule, "clean"), f"no clean fixture for {rule}"
            assert _cases(rule, "suppressed"), f"no suppressed fixture for {rule}"
        # The meta rule has no suppressed case: hygiene findings cannot be
        # suppressed (a suppression of a suppression could never go stale).
        assert _cases(META_RULE, "firing") and _cases(META_RULE, "clean")

    @pytest.mark.parametrize("rule", RULES)
    def test_firing_fixtures_fire(self, rule, tmp_path):
        for index, case in enumerate(_cases(rule, "firing")):
            root = _deploy(case, tmp_path / str(index))
            findings = _lint(root)
            fired = [finding for finding in findings if finding.rule == rule]
            assert fired, f"{case} produced no {rule} finding: {findings}"

    @pytest.mark.parametrize("rule", RULES)
    def test_clean_fixtures_are_silent(self, rule, tmp_path):
        for index, case in enumerate(_cases(rule, "clean")):
            root = _deploy(case, tmp_path / str(index))
            findings = _lint(root)
            assert findings == [], f"{case} is not clean: {findings}"

    @pytest.mark.parametrize("rule", RULES)
    def test_suppressed_fixtures_are_silent_even_in_strict_mode(self, rule, tmp_path):
        for index, case in enumerate(_cases(rule, "suppressed")):
            root = _deploy(case, tmp_path / str(index))
            findings = _lint(root, strict=True)
            assert findings == [], f"{case} left residue: {findings}"

    def test_meta_rule_fires_on_stale_and_reasonless_suppressions(self, tmp_path):
        root = _deploy("rl000_firing.py", tmp_path)
        strict = _lint(root, strict=True)
        messages = [finding.message for finding in strict]
        assert any("silences nothing" in message for message in messages)
        assert any("carries no reason" in message for message in messages)
        assert all(finding.rule == META_RULE for finding in strict)
        # Hygiene is strict-only: the default mode stays quiet.
        assert _lint(root, strict=False) == []

    def test_findings_carry_location_rule_and_hint(self, tmp_path):
        root = _deploy("rl001_firing.py", tmp_path)
        finding = _lint(root)[0]
        assert finding.path == "src/repro/monitor/example.py"
        assert finding.line > 0 and finding.rule == "RL001"
        rendered = finding.render()
        assert rendered.startswith("src/repro/monitor/example.py:")
        assert "RL001" in rendered and "[hint:" in rendered


class TestReasonlessSuppressionNeverSilences:
    def test_reasonless_suppression_does_not_hide_the_finding(self, tmp_path):
        root = _deploy("rl001_firing.py", tmp_path)
        target = root / "src/repro/monitor/example.py"
        text = target.read_text(encoding="utf-8").replace(
            "# guarded write outside `with self.lock`",
            "# repro-lint: disable=RL001",
        )
        target.write_text(text, encoding="utf-8")
        findings = _lint(root, strict=True)
        rules = {finding.rule for finding in findings}
        # The violation still fires AND the bare suppression is flagged.
        assert rules == {"RL001", META_RULE}


class TestDriver:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        root = _deploy("rl001_clean.py", tmp_path)
        assert main([str(root), "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = _deploy("rl001_firing.py", tmp_path)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out

    def test_syntax_errors_are_findings_not_aborts(self, tmp_path, capsys):
        # One broken file must never hide the findings in the rest of the
        # tree: it yields a structured RL099 finding and the run goes on.
        # The dedent error is one tokenize rejects too (IndentationError),
        # so the suppression pass must survive it as well.
        root = _deploy("rl001_firing.py", tmp_path)
        (root / "src" / "repro" / "broken.py").write_text("def oops(:\n")
        (root / "src" / "repro" / "dedent.py").write_text(
            "def f():\n        x = 1\n    return x\n"
        )
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert f"src/repro/broken.py:1:9: {PARSE_RULE} syntax error" in out
        dedent = [line for line in out.splitlines() if line.startswith("src/repro/dedent.py:3:")]
        assert len(dedent) == 1 and f"{PARSE_RULE} syntax error: unindent" in dedent[0]
        assert "RL001" in out  # the healthy file was still linted

    def test_rl006_finding_in_an_untokenizable_doc_is_reported(self, tmp_path, capsys):
        # The suppression pass tokenizes every file a finding names; a
        # markdown catalog whose diagram dedents to no enclosing level
        # (four spaces, then two) must still yield its RL006 finding.
        root = tmp_path / "repo"
        obs = root / "src" / "repro" / "obs"
        obs.mkdir(parents=True)
        (obs / "example.py").write_text(
            'def counter(name):\n    return name\n\n\nREQUESTS = counter("service.requests")\n'
        )
        docs = root / "docs"
        docs.mkdir()
        (docs / "architecture.md").write_text(
            "# Architecture\n"
            "\n"
            "    ingest --> window\n"
            "    window --> service\n"
            "  (two-space caption)\n"
            "\n"
            "| Metric | Type | Meaning |\n"
            "| --- | --- | --- |\n"
            "| `service.phantom` | counter | documented but never registered |\n"
            "| `service.requests` | counter | requests served |\n"
        )
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert (
            "docs/architecture.md:9:1: RL006 documented metric 'service.phantom' "
            "is never registered" in out
        )

    def test_non_utf8_files_are_findings_not_aborts(self, tmp_path, capsys):
        root = _deploy("rl001_clean.py", tmp_path)
        (root / "src" / "repro" / "binary.py").write_bytes(b"data = '\xff\xfe'\n")
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert PARSE_RULE in out and "not valid UTF-8" in out

    def test_internal_errors_exit_two(self, tmp_path, capsys, monkeypatch):
        import repro.lint.driver as driver

        def boom(*args, **kwargs):
            raise RuntimeError("checker exploded")

        monkeypatch.setattr(driver, "run_lint", boom)
        assert main([str(tmp_path)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_json_output_is_a_findings_document(self, tmp_path, capsys):
        root = _deploy("rl005_firing.py", tmp_path)
        assert main([str(root), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["checked_files"] == 1
        assert document["rules"]  # the rule catalog rides along
        assert any(f["rule"] == "RL005" for f in document["findings"])
        for finding in document["findings"]:
            assert {"path", "line", "col", "rule", "message", "hint"} <= set(finding)

    def test_rules_filter_limits_the_run(self, tmp_path):
        # The RL005 firing fixture fires nothing when only RL001 runs.
        root = _deploy("rl005_firing.py", tmp_path)
        assert main([str(root), "--rules", "RL001"]) == 0

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rules", "RL999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_rule_ids_are_unique_and_titled(self):
        checkers = all_checkers()
        rules = [checker.rule for checker in checkers]
        assert len(set(rules)) == len(rules)
        assert rules == ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL010"]
        assert all(checker.title for checker in checkers)


class TestRepositoryIsClean:
    def test_src_and_scripts_lint_clean_in_strict_mode(self):
        # The same invocation CI runs; a regression in the codebase (or an
        # over-eager checker) fails here first, with the rendered findings.
        repo = Path(__file__).resolve().parents[1]
        result = run_lint([repo / "src", repo / "scripts"], root=repo)
        reportable = result.reportable(strict=True)
        assert result.parse_errors == []
        assert reportable == [], "\n".join(f.render() for f in reportable)


class TestFlowSensitiveRules:
    """The CFG/dataflow core sees paths, not patterns — assertions that a
    syntactic checker could not make."""

    def _messages(self, case: str, tmp_path: Path) -> list[str]:
        root = _deploy(case, tmp_path)
        return [finding.message for finding in _lint(root)]

    def test_rl010_reports_the_join_skipped_by_the_early_return(self, tmp_path):
        messages = self._messages("rl010_firing.py", tmp_path)
        assert any(
            "neither awaited nor cancelled on some paths" in m for m in messages
        )
        assert any("without asyncio.shield" in m for m in messages)

    def test_cfg_builder_survives_the_syntax_zoo(self, tmp_path):
        # Every construct the CFG models, in one function, analysed to
        # fixpoint without error (the result is irrelevant here).
        from repro.lint.cfg import build_cfg, function_defs

        source = '''
import asyncio

async def zoo(items, flag):
    while True:
        if flag:
            break
    else:
        flag = not flag
    for item in items:
        if item is None:
            continue
        try:
            async with make_lock() as guard:
                await guard.poke()
        except (ValueError, KeyError) as error:
            raise RuntimeError("wrapped") from error
        except Exception:
            return None
        else:
            flag = True
        finally:
            item.done = True
    match flag:
        case True:
            return 1
        case _:
            pass
    async for chunk in stream():
        with open("x") as fh, closing(fh) as duplicate:
            yield fh.read()
    return flag
'''
        tree = ast.parse(source)
        functions = function_defs(tree)
        assert len(functions) == 1
        cfg = build_cfg(functions[0])
        assert cfg.entry is not None and cfg.exit is not None

    def test_unreachable_return_exit_is_not_a_crash(self, tmp_path, capsys):
        # No path reaches the normal exit, so there is no fact to report
        # at; the run must stay a clean exit 0, not an internal error.
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "service" / "example.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import asyncio\n"
            "\n"
            "\n"
            "async def run_forever(work):\n"
            "    task = asyncio.create_task(work())\n"
            "    while True:\n"
            "        await asyncio.sleep(1)\n",
            encoding="utf-8",
        )
        assert main([str(root), "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_dedup_keeps_one_finding_per_site(self, tmp_path):
        # RL010 reports an await in a nested finally once per enclosing
        # finally body; the driver must report each site exactly once.
        from repro.lint import FileContext
        from repro.lint.checkers.async_cancel import AsyncCancelChecker

        root = tmp_path / "repo"
        target = root / "src" / "repro" / "service" / "example.py"
        target.parent.mkdir(parents=True)
        source = (
            "import asyncio\n"
            "\n"
            "\n"
            "async def close(writer):\n"
            "    try:\n"
            "        writer.write(b'bye')\n"
            "    finally:\n"
            "        try:\n"
            "            await writer.drain()\n"
            "        finally:\n"
            "            await writer.wait_closed()\n"
        )
        target.write_text(source, encoding="utf-8")
        raw = AsyncCancelChecker().check(
            FileContext(root, target, source, ast.parse(source))
        )
        assert sorted(finding.line for finding in raw) == [9, 11, 11]
        findings = _lint(root)
        assert [(f.rule, f.line) for f in findings] == [("RL010", 9), ("RL010", 11)]


class TestSuppressionEdgeCases:
    def _deploy_service(self, tmp_path: Path, body: str) -> Path:
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "service" / "example.py"
        target.parent.mkdir(parents=True)
        target.write_text(body, encoding="utf-8")
        return root

    def test_two_rules_suppressed_on_one_line(self, tmp_path):
        # `open` awaited inside `finally:` in an async service handler
        # fires RL002 (blocking) AND RL010 (unshielded cleanup await) on
        # the same line; one comment silences both.
        line = "        await asyncio.wait_for(open(path).close(), 1)"
        body = (
            "import asyncio\n\n\n"
            "async def warm(path, writer):\n"
            "    try:\n"
            "        writer.write(b'hello')\n"
            "    finally:\n"
        )
        root = self._deploy_service(tmp_path / "bare", body + line + "\n")
        assert {(f.rule, f.line) for f in _lint(root)} == {("RL002", 8), ("RL010", 8)}
        root = self._deploy_service(
            tmp_path / "suppressed",
            body + line + "  # repro-lint: disable=RL002(startup only),"
            "RL010(shutdown path: nothing left to cancel)\n",
        )
        assert _lint(root, strict=True) == []

    def test_empty_reason_neither_silences_nor_passes_hygiene(self, tmp_path):
        root = self._deploy_service(
            tmp_path,
            "import time\n\n\n"
            "async def slow():\n"
            "    time.sleep(1)  # repro-lint: disable=RL002()\n",
        )
        rules = {finding.rule for finding in _lint(root, strict=True)}
        assert rules == {"RL002", META_RULE}

    def test_stale_item_is_flagged_while_its_neighbour_still_silences(self, tmp_path):
        # RL002 fires and stays silenced; the RL005 item on the same
        # comment silences nothing and must be reported stale.
        root = self._deploy_service(
            tmp_path,
            "import time\n\n\n"
            "async def slow():\n"
            "    time.sleep(1)  # repro-lint: disable=RL002(bench harness),"
            "RL005(stale reason)\n",
        )
        strict = _lint(root, strict=True)
        assert [finding.rule for finding in strict] == [META_RULE]
        assert "RL005" in strict[0].message and "silences nothing" in strict[0].message


class TestCliParity:
    """``repro.cli lint`` and ``python -m repro.lint`` share one argument
    set and one runner — same flags, same exit codes, same output."""

    def test_same_json_document_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = _deploy("rl001_firing.py", tmp_path)
        argv = [str(root), "--strict", "--json"]
        module_exit = main(argv)
        module_doc = json.loads(capsys.readouterr().out)
        cli_exit = cli_main(["lint", *argv])
        cli_doc = json.loads(capsys.readouterr().out)
        assert (module_exit, module_doc) == (cli_exit, cli_doc) == (1, cli_doc)

    def test_same_exit_code_on_clean_trees(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = _deploy("rl001_clean.py", tmp_path)
        argv = [str(root), "--strict"]
        assert main(argv) == cli_main(["lint", *argv]) == 0

    def test_flag_set_is_paths_strict_json_rules(self, tmp_path):
        from repro.cli import main as cli_main

        parser = argparse.ArgumentParser()
        add_lint_arguments(parser)
        assert set(vars(parser.parse_args([]))) == {"paths", "strict", "as_json", "rules"}
        # Retired flags are usage errors (argparse exits 2) on both entry points.
        for flag in ("--fix", "--no-cache", "--baseline=x.json"):
            with pytest.raises(SystemExit) as module_exit:
                main([str(tmp_path), flag])
            with pytest.raises(SystemExit) as cli_exit:
                cli_main(["lint", str(tmp_path), flag])
            assert module_exit.value.code == cli_exit.value.code == 2
