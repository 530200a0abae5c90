"""RL003 — hot-path purity: vectorized kernels stay vectorized.

PRs 1, 5 and 8 earned their speedups by removing per-element Python from
the batch update/query paths; nothing stops a convenient ``for user in
users:`` from creeping back.  Inside the designated hot modules
(``engine/kernels.py``, ``engine/query.py``, ``state/arena.py``) and any
function marked ``@hot_path`` (:func:`repro.engine.hot_path`) anywhere,
this rule flags the three regressions that ate the previous wins:

* a loop (statement or comprehension) over ``.items()`` / ``.keys()`` /
  ``.values()`` — the per-user dict hop the arena exists to eliminate;
* a numpy call inside a ``for``/``while`` body — per-element numpy
  dispatch overhead, the opposite of one whole-array call;
* in ``@hot_path`` functions: a ``for`` loop over a function parameter
  (or an attribute of one, such as ``batch.users``), over an array's
  ``.tolist()``, or over ``zip``/``enumerate`` of those — the per-element
  iteration the marker promises not to do.

Dunder methods in hot modules are exempt: ``__deepcopy__``,
``__getstate__`` and friends are snapshot/debug paths, not data paths.
Genuinely-bounded scalar fallbacks (cache-miss fills) stay expressible via
an explicit suppression naming the bound.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, FileContext
from repro.lint.findings import Finding

_DICT_HOPS = {"items", "keys", "values"}

#: Names numpy is imported as across this repository.
_NUMPY_ALIASES = {"np", "numpy"}


def _is_hot_path_decorated(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in func.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "hot_path":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "hot_path":
            return True
    return False


def _element_source(iterable: ast.expr, params: set[str]) -> str | None:
    """What a ``for`` loop walks element by element, when it is batch data.

    A parameter or an attribute of one (``batch.users``), an array's
    ``.tolist()``, or ``zip``/``enumerate`` over any of those.
    """
    if isinstance(iterable, ast.Name):
        return f"parameter `{iterable.id}`" if iterable.id in params else None
    if isinstance(iterable, ast.Attribute):
        root: ast.expr = iterable
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in params:
            return f"`{ast.unparse(iterable)}`"
        return None
    if isinstance(iterable, ast.Call):
        func = iterable.func
        if isinstance(func, ast.Attribute) and func.attr == "tolist":
            return f"`{ast.unparse(iterable)}`"
        if isinstance(func, ast.Name) and func.id in ("zip", "enumerate"):
            for arg in iterable.args:
                source = _element_source(arg, params)
                if source is not None:
                    return source
    return None


def _is_numpy_call(call: ast.Call) -> bool:
    node = call.func
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in _NUMPY_ALIASES


class HotPathChecker(Checker):
    rule = "RL003"
    title = (
        "hot-path kernels stay vectorized: no per-element loops, dict "
        "hops or per-element numpy dispatch (PRs 1/5/8)"
    )
    scope = (
        "src/repro/engine/kernels.py",
        "src/repro/engine/query.py",
        "src/repro/state/arena.py",
        "src/repro/**/*.py",  # @hot_path-marked functions anywhere
        "scripts/*.py",
    )

    #: Files where *every* function is hot (module scope), not only marked ones.
    _HOT_MODULES = (
        "src/repro/engine/kernels.py",
        "src/repro/engine/query.py",
        "src/repro/state/arena.py",
    )

    def check(self, context: FileContext) -> list[Finding]:
        module_is_hot = context.rel in self._HOT_MODULES
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            marked = _is_hot_path_decorated(node)
            if marked:
                self._check_function(context, node, findings, marked=True)
            elif module_is_hot and not node.name.startswith("__"):
                self._check_function(context, node, findings, marked=False)
        return findings

    def _check_function(
        self,
        context: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
        marked: bool,
    ) -> None:
        params = {
            arg.arg
            for arg in [
                *func.args.posonlyargs,
                *func.args.args,
                *func.args.kwonlyargs,
            ]
            if arg.arg not in ("self", "cls")
        }

        def visit(node: ast.AST, in_loop: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                return  # nested defs are their own scope (checked if marked)
            if isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if (
                    isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Attribute)
                    and iterable.func.attr in _DICT_HOPS
                ):
                    anchor = node if isinstance(node, ast.For) else iterable
                    findings.append(
                        self._finding(
                            context,
                            anchor,
                            func,
                            f"iterates `.{iterable.func.attr}()` per element",
                            "gather through the arena / a vectorized column instead",
                        )
                    )
                source = (
                    _element_source(iterable, params)
                    if marked and isinstance(node, ast.For)
                    else None
                )
                if source is not None:
                    findings.append(
                        self._finding(
                            context,
                            node,
                            func,
                            f"loops per element over {source}",
                            "vectorize over the whole batch (the @hot_path promise)",
                        )
                    )
            if isinstance(node, ast.Call) and in_loop and _is_numpy_call(node):
                findings.append(
                    self._finding(
                        context,
                        node,
                        func,
                        "calls numpy inside a Python loop",
                        "hoist to one whole-array operation outside the loop",
                    )
                )
            if isinstance(node, ast.For):
                # The iterable expression runs once; only the body repeats.
                visit(node.iter, in_loop)
                visit(node.target, in_loop)
                for stmt in [*node.body, *node.orelse]:
                    visit(stmt, True)
                return
            entering_loop = in_loop or isinstance(node, ast.While)
            for child in ast.iter_child_nodes(node):
                visit(child, entering_loop)

        visit(func, False)

    def _finding(
        self,
        context: FileContext,
        node: ast.AST,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        what: str,
        hint: str,
    ) -> Finding:
        return Finding(
            path=context.rel,
            line=getattr(node, "lineno", func.lineno),
            col=getattr(node, "col_offset", func.col_offset),
            rule=self.rule,
            message=f"hot path {func.name} {what}",
            hint=hint,
        )
