"""RL002 — no blocking calls inside the service's async handlers.

The query server runs one asyncio task per connection (PR 4); a single
blocking call inside an ``async def`` stalls *every* connection, not one.
The codebase's convention is explicit: anything that can block — sketch
merges behind the ingest lock above all — goes through
``loop.run_in_executor``.  This rule flags the calls that violate it
lexically inside ``async def`` bodies in :mod:`repro.service`:

* ``time.sleep`` (use ``asyncio.sleep``);
* synchronous socket construction / connection (``socket.*``);
* blocking file IO: builtin ``open`` and ``Path.read_*``/``write_*``;
* ``subprocess`` / ``os.system`` / ``os.popen``;
* acquiring a ``threading``-style lock: ``<lock>.acquire()`` or
  ``with self.<lock>`` (park it on the executor instead);
* ``json.dumps`` / ``json.loads`` of request-sized payloads (encode in the
  sync codec layer, off the event loop, where the executor can own it).

Nested synchronous ``def`` bodies are exempt — they run wherever they are
called, which the executor pattern makes deliberate.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import attr_tail as _attr_tail
from repro.lint.astutil import call_origin as _call_origin
from repro.lint.base import Checker, FileContext
from repro.lint.findings import Finding

#: Dotted call origins that block the event loop, with the fix to name.
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "socket.socket": "use asyncio streams (`asyncio.open_connection`)",
    "socket.create_connection": "use asyncio streams (`asyncio.open_connection`)",
    "subprocess.run": "use `asyncio.create_subprocess_exec`",
    "subprocess.check_output": "use `asyncio.create_subprocess_exec`",
    "subprocess.check_call": "use `asyncio.create_subprocess_exec`",
    "subprocess.call": "use `asyncio.create_subprocess_exec`",
    "subprocess.Popen": "use `asyncio.create_subprocess_exec`",
    "os.system": "use `asyncio.create_subprocess_shell`",
    "os.popen": "use `asyncio.create_subprocess_shell`",
    "json.dumps": "encode in the sync codec layer / run_in_executor",
    "json.loads": "decode in the sync codec layer / run_in_executor",
}

_PATH_IO_METHODS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
}


class AsyncBlockingChecker(Checker):
    rule = "RL002"
    title = (
        "async service handlers never block the event loop "
        "(one-task-per-connection server, PR 4)"
    )
    scope = ("src/repro/service/*.py",)

    def check(self, context: FileContext) -> list[Finding]:
        aliases = context.import_aliases()
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                self._check_async_def(context, aliases, node, findings)
        return findings

    def _check_async_def(
        self,
        context: FileContext,
        aliases: dict[str, str],
        func: ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.FunctionDef):
                return  # sync helper: runs wherever it is called
            if isinstance(node, ast.AsyncFunctionDef) and node is not func:
                return  # visited on its own
            if isinstance(node, ast.Call):
                self._check_call(context, aliases, func, node, findings)
            if isinstance(node, ast.With):
                for item in node.items:
                    name = _attr_tail(item.context_expr)
                    if name is not None and "lock" in name.lower():
                        findings.append(
                            self._finding(
                                context,
                                item.context_expr,
                                func,
                                f"acquires `{name}` with a blocking `with`",
                                "run the locked section via loop.run_in_executor",
                            )
                        )
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(func)

    def _check_call(
        self,
        context: FileContext,
        aliases: dict[str, str],
        func: ast.AsyncFunctionDef,
        call: ast.Call,
        findings: list[Finding],
    ) -> None:
        origin = _call_origin(call.func, aliases)
        if origin in _BLOCKING_CALLS:
            findings.append(
                self._finding(
                    context,
                    call,
                    func,
                    f"calls blocking `{origin}`",
                    _BLOCKING_CALLS[origin],
                )
            )
            return
        if origin == "open" or origin == "io.open":
            findings.append(
                self._finding(
                    context, call, func, "performs blocking file IO (`open`)",
                    "read the file before entering the event loop, or use run_in_executor",
                )
            )
            return
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            receiver = _attr_tail(call.func.value)
            if attr == "acquire" and receiver is not None and "lock" in receiver.lower():
                findings.append(
                    self._finding(
                        context,
                        call,
                        func,
                        f"acquires `{receiver}` on the event loop",
                        "run the locked section via loop.run_in_executor",
                    )
                )
            elif attr in _PATH_IO_METHODS:
                findings.append(
                    self._finding(
                        context,
                        call,
                        func,
                        f"performs blocking file IO (`.{attr}`)",
                        "do file IO outside the event loop, or use run_in_executor",
                    )
                )

    def _finding(
        self,
        context: FileContext,
        node: ast.AST,
        func: ast.AsyncFunctionDef,
        what: str,
        hint: str,
    ) -> Finding:
        return Finding(
            path=context.rel,
            line=getattr(node, "lineno", func.lineno),
            col=getattr(node, "col_offset", func.col_offset),
            rule=self.rule,
            message=f"async def {func.name} {what}",
            hint=hint,
        )
