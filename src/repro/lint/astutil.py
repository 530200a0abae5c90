"""Small AST helpers shared by the checker set.

These existed as private helpers inside individual checkers (RL002 grew
the first copies); RL005 and RL010 need them too, so they live here once.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator


def call_origin(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted origin of a call target, resolved through import aliases.

    ``sleep(...)`` under ``from time import sleep`` resolves to
    ``time.sleep``; ``np.zeros`` under ``import numpy as np`` to
    ``numpy.zeros``.  Attribute chains rooted in anything but a name
    (``foo().bar``) resolve to None.
    """
    if isinstance(func, ast.Name):
        return aliases.get(func.id, func.id)
    if isinstance(func, ast.Attribute):
        base = call_origin(func.value, aliases)
        if base is None:
            return None
        return f"{base}.{func.attr}"
    return None


def attr_tail(node: ast.expr) -> str | None:
    """Trailing attribute/identifier name of a dotted expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def walk_expressions(element: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class defs.

    A statement's flow effects stop at a nested ``def`` — its body runs
    later, under whoever calls it — so flow transfer functions scan with
    this instead of :func:`ast.walk`.
    """
    stack = [element]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Lambda):
                continue
            stack.append(child)
