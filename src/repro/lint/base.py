"""Checker interface and the file/project contexts checkers see.

Two kinds of pass share one interface:

* **per-file** — :meth:`Checker.check` is called once per linted file whose
  path matches :attr:`Checker.scope`, with that file's parsed AST;
* **cross-file** — :meth:`Checker.finalize` is called once after every file
  was visited, with a :class:`ProjectContext` that can lazily load *any*
  repository file (registry vs codec table, metric call sites vs docs) —
  cross-file invariants must hold over the whole tree even when the lint
  run was pointed at a subset of it.

Checkers keep no state between calls: a cross-file checker reads all it
needs through the :class:`ProjectContext` in ``finalize``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from pathlib import Path

from repro.lint.findings import Finding


class FileContext:
    """One parsed source file."""

    def __init__(self, root: Path, path: Path, source: str, tree: ast.Module) -> None:
        self.root = root
        self.path = path
        #: Posix-style path relative to the repository root (stable in
        #: findings and suppressions regardless of invocation directory);
        #: files outside the root keep their absolute path.
        try:
            self.rel = path.relative_to(root).as_posix()
        except ValueError:
            self.rel = path.as_posix()
        self.source = source
        self.tree = tree

    def import_aliases(self) -> dict[str, str]:
        """Map of local name -> dotted origin for top-level imports.

        ``import numpy as np`` yields ``{"np": "numpy"}``; ``from time
        import sleep`` yields ``{"sleep": "time.sleep"}``.  Function-local
        imports are included too — blocking calls hide behind those just as
        well.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    aliases[name.asname or name.name.split(".")[0]] = name.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for name in node.names:
                    aliases[name.asname or name.name] = f"{node.module}.{name.name}"
        return aliases


class ProjectContext:
    """The repository as cross-file checkers see it (files parsed once)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._cache: dict[str, FileContext | None] = {}

    def add(self, context: FileContext) -> None:
        """Seed the cache with an already-parsed file (the driver's targets)."""
        self._cache.setdefault(context.rel, context)

    def load(self, rel: str) -> FileContext | None:
        """Parse ``root/rel`` (cached); None when absent or unparseable."""
        if rel not in self._cache:
            path = self.root / rel
            context = None
            source = self.read_text(rel)
            if source is not None:
                try:
                    context = FileContext(self.root, path, source, ast.parse(source))
                except SyntaxError:
                    context = None
            self._cache[rel] = context
        return self._cache[rel]

    def read_text(self, rel: str) -> str | None:
        """Raw text of ``root/rel``; None when absent or not readable UTF-8.

        Unreadable files must not crash a cross-file pass that merely
        swept them up in a glob — the per-file pass already reported them.
        """
        path = self.root / rel
        try:
            return path.read_bytes().decode("utf-8") if path.is_file() else None
        except (OSError, UnicodeDecodeError):
            return None

    def glob(self, pattern: str) -> list[str]:
        """Sorted repo-relative matches of a root-anchored glob."""
        return sorted(
            match.relative_to(self.root).as_posix()
            for match in self.root.glob(pattern)
            if match.is_file()
        )


class Checker:
    """Base class: one rule id, one invariant, per-file and/or cross-file."""

    #: Rule id (``RL001`` ...), unique across the shipped checker set.
    rule: str = ""
    #: One-line statement of the protected invariant (the rule catalog).
    title: str = ""
    #: fnmatch patterns (against the repo-relative posix path) selecting
    #: the files :meth:`check` runs on; empty means "no per-file pass".
    scope: tuple[str, ...] = ()

    def in_scope(self, rel: str) -> bool:
        return any(fnmatch(rel, pattern) for pattern in self.scope)

    def check(self, context: FileContext) -> list[Finding]:
        """Per-file pass over one in-scope file."""
        return []

    def finalize(self, project: ProjectContext) -> list[Finding]:
        """Cross-file pass after every target file was visited."""
        return []
