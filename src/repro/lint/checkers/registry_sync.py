"""RL004 — registry consistency across serialization and the wire.

Two registries promise "describe once, derive everywhere": the method
registry (:mod:`repro.registry.specs`) and the service op registry
(:mod:`repro.service.ops`).  Their *consumers* live in other files, and
nothing ties them together at commit time — a new ``MethodSpec`` without a
codec entry fails only when the first snapshot is written; a new binary
array field without a client counterpart fails only on the wire.  This
cross-file rule closes the loop:

* every ``MethodSpec`` name has a dump/load entry in
  ``core/serialization.py``'s ``_METHOD_STATE_CODECS`` table;
* every ``MethodSpec.tag`` is exercised by ``tests/test_serialization.py``
  (the round-trip suite), which must also mention every accepted format
  version (``v1``, ``v2``, … — read from the ``_ACCEPTED_VERSIONS`` literal
  in ``core/serialization.py``);
* every ``OpSpec.request_arrays`` / ``result_arrays`` *kind* is a key of
  ``service/frames.py``'s ``_KIND_DTYPES`` (the binary transport can
  actually lift it);
* every such array *field name* appears in ``service/client.py`` (the
  client knows the field exists — as a literal or a keyword argument).
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, ProjectContext
from repro.lint.findings import Finding

_SPECS = "src/repro/registry/specs.py"
_SERIALIZATION = "src/repro/core/serialization.py"
_SER_TESTS = "tests/test_serialization.py"
_OPS = "src/repro/service/ops.py"
_FRAMES = "src/repro/service/frames.py"
_CLIENT = "src/repro/service/client.py"


def _call_kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _literal_strings(node: ast.AST) -> set[str]:
    return {
        constant.value
        for constant in ast.walk(node)
        if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
    }


def _dict_literal_keys(tree: ast.Module, variable: str) -> set[str] | None:
    """String keys of the dict literal assigned to ``variable``, if found."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        named = any(isinstance(t, ast.Name) and t.id == variable for t in targets)
        if named and isinstance(node.value, ast.Dict):
            return {
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return None


def _int_literals(tree: ast.Module, variable: str) -> list[int]:
    """Sorted int constants in the literal assigned to ``variable``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == variable for t in node.targets
        ):
            return sorted(
                constant.value
                for constant in ast.walk(node.value)
                if isinstance(constant, ast.Constant) and type(constant.value) is int
            )
    return []


def _spec_calls(tree: ast.Module, class_name: str) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == class_name
    ]


def _array_decls(call: ast.Call, field: str) -> list[tuple[str, str, int, int]]:
    """(name, kind, line, col) entries of one OpSpec array declaration."""
    value = _call_kwarg(call, field)
    entries: list[tuple[str, str, int, int]] = []
    if not isinstance(value, (ast.Tuple, ast.List)):
        return entries
    for element in value.elts:
        if isinstance(element, (ast.Tuple, ast.List)) and len(element.elts) == 2:
            name_node, kind_node = element.elts
            if (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
                and isinstance(kind_node, ast.Constant)
                and isinstance(kind_node.value, str)
            ):
                entries.append(
                    (name_node.value, kind_node.value, element.lineno, element.col_offset)
                )
    return entries


class RegistrySyncChecker(Checker):
    rule = "RL004"
    title = (
        "every registry entry has its serialization codec, round-trip "
        "test and wire counterpart (describe once, derive everywhere)"
    )

    def finalize(self, project: ProjectContext) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_method_registry(project))
        findings.extend(self._check_op_registry(project))
        return findings

    def _check_method_registry(self, project: ProjectContext) -> list[Finding]:
        specs = project.load(_SPECS)
        serialization = project.load(_SERIALIZATION)
        if specs is None or serialization is None:
            return []
        findings: list[Finding] = []
        codec_names = _dict_literal_keys(serialization.tree, "_METHOD_STATE_CODECS") or set()
        test_source = project.read_text(_SER_TESTS) or ""
        for call in _spec_calls(specs.tree, "MethodSpec"):
            name_node = _call_kwarg(call, "name")
            tag_node = _call_kwarg(call, "tag")
            if not (isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)):
                continue
            name = name_node.value
            tag = tag_node.value if isinstance(tag_node, ast.Constant) else name
            if name not in codec_names:
                findings.append(
                    Finding(
                        path=specs.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        rule=self.rule,
                        message=(
                            f"MethodSpec {name!r} has no codec entry in "
                            f"{_SERIALIZATION} _METHOD_STATE_CODECS"
                        ),
                        hint="snapshots of this method cannot serialize; add dump/load functions",
                    )
                )
            if f'"{tag}"' not in test_source and f"'{tag}'" not in test_source:
                findings.append(
                    Finding(
                        path=specs.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        rule=self.rule,
                        message=(
                            f"MethodSpec tag {tag!r} is never exercised by {_SER_TESTS}"
                        ),
                        hint="add a round-trip test for the new kind",
                    )
                )
        accepted = _int_literals(serialization.tree, "_ACCEPTED_VERSIONS")
        versions = [f"v{number}" for number in accepted]
        if test_source:
            for version in versions:
                if version not in test_source:
                    findings.append(
                        Finding(
                            path=_SER_TESTS,
                            line=1,
                            col=0,
                            rule=self.rule,
                            message=(
                                f"serialization round-trip tests never mention {version} "
                                f"(accepted format versions are {'/'.join(versions)})"
                            ),
                            hint="keep a load test for every accepted envelope version",
                        )
                    )
        return findings

    def _check_op_registry(self, project: ProjectContext) -> list[Finding]:
        ops = project.load(_OPS)
        frames = project.load(_FRAMES)
        client = project.load(_CLIENT)
        if ops is None or frames is None or client is None:
            return []
        findings: list[Finding] = []
        kinds = _dict_literal_keys(frames.tree, "_KIND_DTYPES") or set()
        client_names = _literal_strings(client.tree) | {
            keyword.arg
            for node in ast.walk(client.tree)
            if isinstance(node, ast.Call)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        for call in _spec_calls(ops.tree, "OpSpec"):
            for field in ("request_arrays", "result_arrays"):
                for name, kind, line, col in _array_decls(call, field):
                    if kind not in kinds:
                        findings.append(
                            Finding(
                                path=ops.rel,
                                line=line,
                                col=col,
                                rule=self.rule,
                                message=(
                                    f"{field} kind {kind!r} has no dtype entry in "
                                    f"{_FRAMES} _KIND_DTYPES"
                                ),
                                hint="the binary transport cannot lift this field; add the kind",
                            )
                        )
                    if name not in client_names:
                        findings.append(
                            Finding(
                                path=ops.rel,
                                line=line,
                                col=col,
                                rule=self.rule,
                                message=(
                                    f"{field} field {name!r} is never referenced by {_CLIENT}"
                                ),
                                hint="teach ServiceClient the field (lift plan / result parsing)",
                            )
                        )
        return findings
