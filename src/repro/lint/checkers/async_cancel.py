"""RL010 — async cancellation safety: joined tasks, shielded cleanup.

Two cancellation hazards the asyncio service layer (PR 4/6) must never
reintroduce:

* **fire-and-forget tasks.** ``asyncio.create_task`` hands back a handle
  that somebody must ``await`` (or ``cancel()`` *and then* await): a task
  nobody joins silently swallows its exceptions, and one that is cancelled
  but never awaited may still be mid-``finally`` when the server tears
  down its state.  The ownership dataflow (:mod:`repro.lint.ownership`)
  tracks task handles through each function's CFG — storing the task,
  returning it, gathering it, or registering a done-callback all transfer
  ownership; a path on which the local handle is still pending (or
  cancelled-but-unjoined) at a function exit is a finding;
* **unshielded awaits in ``finally``.** Cleanup code runs on the
  cancellation path too: a bare ``await`` inside ``finally`` re-raises
  ``CancelledError`` immediately and abandons the rest of the cleanup.
  The sanctioned pattern is ``await asyncio.shield(...)``.  This half is
  syntactic: an ``await`` inside a nested ``finally:`` is found once per
  enclosing ``finally`` body, and the driver's deduplication reports it
  once.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import attr_tail, call_origin, walk_expressions
from repro.lint.base import Checker, FileContext
from repro.lint.cfg import build_cfg, function_defs
from repro.lint.dataflow import run_forward
from repro.lint.findings import Finding
from repro.lint.ownership import OwnershipAnalysis, Site

_TASK_ORIGINS = {"asyncio.create_task", "asyncio.ensure_future"}

#: Methods on a task handle that discharge or re-status the claim.
_TASK_METHODS = {
    "cancel": "cancelled",
    "add_done_callback": "",  # someone will observe the task
    "result": "",
    "exception": "",
}


class _TaskAnalysis(OwnershipAnalysis):
    status_order = ("pending", "cancelled")
    acquire_status = "pending"

    def acquire(self, call: ast.Call) -> str | None:
        origin = call_origin(call.func, self.aliases)
        if origin in _TASK_ORIGINS:
            return f"{origin}(...)"
        # ``loop.create_task(...)`` — any loop-ish receiver counts; a
        # TaskGroup joins its tasks itself and is spelled differently.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "create_task"
            and "loop" in (attr_tail(call.func.value) or "").lower()
        ):
            return "loop.create_task(...)"
        return None

    def release_status(self, method: str) -> str | None:
        return _TASK_METHODS.get(method)


class AsyncCancelChecker(Checker):
    rule = "RL010"
    title = (
        "async tasks are joined (awaited or cancel+awaited) and "
        "finally-block awaits are cancellation-shielded"
    )
    scope = ("src/repro/service/*.py", "src/repro/runtime/*.py", "src/repro/cli.py")

    def check(self, context: FileContext) -> list[Finding]:
        aliases = context.import_aliases()
        findings: list[Finding] = []
        for func in function_defs(context.tree):
            if isinstance(func, ast.AsyncFunctionDef):
                findings.extend(self._check_finally_awaits(context, aliases, func))
            findings.extend(self._check_task_joins(context, aliases, func))
        return findings

    # -- unshielded awaits in finally ---------------------------------------

    def _check_finally_awaits(
        self, context: FileContext, aliases: dict[str, str], func: ast.AsyncFunctionDef
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in walk_expressions(func):
            if not (isinstance(node, ast.Try) and node.finalbody):
                continue
            for stmt in node.finalbody:
                for sub in walk_expressions(stmt):
                    if not isinstance(sub, ast.Await):
                        continue
                    value = sub.value
                    if (
                        isinstance(value, ast.Call)
                        and call_origin(value.func, aliases) == "asyncio.shield"
                    ):
                        continue
                    findings.append(
                        Finding(
                            path=context.rel,
                            line=sub.lineno,
                            col=sub.col_offset,
                            rule=self.rule,
                            message=(
                                f"{func.name} awaits inside `finally:` without "
                                "asyncio.shield — cancellation abandons the cleanup"
                            ),
                            hint="await asyncio.shield(...) so cleanup survives cancellation",
                        )
                    )
        return findings

    # -- unjoined tasks ------------------------------------------------------

    def _check_task_joins(
        self,
        context: FileContext,
        aliases: dict[str, str],
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        analysis = _TaskAnalysis(aliases)
        if not self._creates_tasks(func, analysis):
            return []
        cfg = build_cfg(func)
        result = run_forward(cfg, analysis)
        findings: list[Finding] = []
        # Only return exits are reported: every statement between
        # create_task and the join makes an exception path on which the
        # task is technically still pending, and flagging those would bury
        # the actual fire-and-forget bugs under structural noise.
        # A function whose normal exit is unreachable (``while True:``
        # without a break) has no return exit to report at.
        flagged: dict[tuple[str, Site], tuple[str, bool]] = {}
        for var, claim in (result.at_exit or {}).items():
            for site in claim.sites:
                flagged[(var, site)] = (claim.status, claim.definite)
        for (var, site), (status, definite) in sorted(flagged.items()):
            line, col, what = site
            where = "on every path" if definite else "on some paths"
            if status == "cancelled":
                message = (
                    f"task `{var}` from {what} is cancelled but never awaited "
                    f"{where} — the cancellation is not joined"
                )
                hint = "await the task after cancel() (swallowing CancelledError) to join it"
            else:
                message = (
                    f"task `{var}` from {what} is neither awaited nor cancelled "
                    f"{where} in {func.name} — its exceptions vanish"
                )
                hint = "await it, gather it, store it for a later join, or cancel-and-await"
            findings.append(
                Finding(
                    path=context.rel,
                    line=line,
                    col=col,
                    rule=self.rule,
                    message=message,
                    hint=hint,
                )
            )
        return findings

    def _creates_tasks(self, func: ast.AST, analysis: _TaskAnalysis) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and analysis.acquire(node) is not None:
                return True
        return False
