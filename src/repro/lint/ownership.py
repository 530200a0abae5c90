"""Ownership dataflow: a local acquires something that must be disposed.

RL010 tracks asyncio tasks that must be awaited or cancelled: a *local
variable* acquires ownership at some site (``task = asyncio.create_task(
...)``), ownership is discharged by a release call, an ``await`` of the
value, or an escape (the value is returned, stored, or handed to another
callee), and a path on which the variable still owns the thing at a
function exit is a finding.

The fact is a map ``variable -> Claim``; :class:`Claim` remembers the
acquire site(s), whether ownership holds on *every* path reaching here
(``definite``) or only some, and a rule-specific ``status`` ("pending",
"cancelled", ...).

Escape analysis is deliberately generous: any use of the owned name as a
call argument, in a ``return``/``yield`` value, or on the right of an
assignment into an attribute/subscript/container counts as a transfer of
ownership and ends tracking.  Generosity here trades false negatives for
precision — every remaining finding is a local that *nobody else could
have released*.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from repro.lint.astutil import walk_expressions
from repro.lint.cfg import Marker
from repro.lint.dataflow import ForwardAnalysis

#: (line, col, description) of one acquire site.
Site = tuple[int, int, str]


@dataclass(frozen=True)
class Claim:
    """Ownership of one value by one local variable."""

    sites: frozenset[Site]
    status: str
    definite: bool = True


State = dict[str, Claim]


class OwnershipAnalysis(ForwardAnalysis[State]):
    """Track local ownership claims through one function's CFG."""

    #: ``status`` values ordered most-severe-first; joins of unequal
    #: statuses keep the more severe one.
    status_order: tuple[str, ...]
    #: Status a fresh claim starts in.
    acquire_status: str

    def __init__(self, aliases: dict[str, str]) -> None:
        self.aliases = aliases

    # -- hooks for concrete rules ------------------------------------------

    def acquire(self, call: ast.Call) -> str | None:
        """Description of what ``call`` acquires, or None."""
        raise NotImplementedError

    def release_status(self, method: str) -> str | None:
        """New status after ``owned.<method>()`` — "" releases outright."""
        raise NotImplementedError

    # -- lattice ------------------------------------------------------------

    def initial(self) -> State:
        return {}

    def join(self, left: State, right: State) -> State:
        joined: State = {}
        for var in left.keys() | right.keys():
            a, b = left.get(var), right.get(var)
            if a is None or b is None:
                present = a if a is not None else b
                assert present is not None
                joined[var] = replace(present, definite=False)
            else:
                status = a.status
                if a.status != b.status:
                    by_severity = {name: i for i, name in enumerate(self.status_order)}
                    status = min(
                        (a.status, b.status), key=lambda s: by_severity.get(s, len(by_severity))
                    )
                joined[var] = Claim(
                    sites=a.sites | b.sites,
                    definite=a.definite and b.definite,
                    status=status,
                )
        return joined

    # -- transfer -----------------------------------------------------------

    def transfer(self, element: ast.stmt | Marker, state: State) -> State:
        if isinstance(element, Marker):
            if element.kind in {"test", "loop_iter"}:
                return self._scan_uses(element.node, state)
            if element.kind == "with_enter":
                item = element.node
                assert isinstance(item, ast.withitem)
                return self._scan_uses(item.context_expr, state)
            return state
        state = self._scan_uses(element, state)
        if isinstance(element, ast.Delete):
            state = {
                var: claim
                for var, claim in state.items()
                if var not in {t.id for t in element.targets if isinstance(t, ast.Name)}
            }
        if isinstance(element, (ast.Assign, ast.AnnAssign)):
            state = self._transfer_assign(element, state)
        return state

    def exception_state(self, element: ast.stmt | Marker, pre: State, post: State) -> State:
        # Binding an acquired value is atomic-on-success: if the acquiring
        # call raised, nothing was bound, so only the pre-state escapes.
        # If the element *released* claims (cancel() raised after
        # cancelling, an escape call raised after taking ownership), the
        # discharged state escapes — never resurrect a claim on the
        # exception edge.
        if set(post) <= set(pre):
            return post
        return pre

    def _transfer_assign(self, stmt: ast.Assign | ast.AnnAssign, state: State) -> State:
        value = stmt.value
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or value is None:
            return state
        state = dict(state)
        for name in names:
            state.pop(name, None)  # rebinding drops the stale claim
        if isinstance(value, ast.Call):
            what = self.acquire(value)
            if what is not None:
                claim = Claim(
                    sites=frozenset({(value.lineno, value.col_offset, what)}),
                    status=self.acquire_status,
                )
                for name in names:
                    state[name] = claim
        elif isinstance(value, ast.Name) and value.id in state:
            # ``g = f`` moves ownership (the scan already dropped f if it
            # appeared in a larger expression).
            claim = state.pop(value.id)
            for name in names:
                state[name] = claim
        return state

    def _scan_uses(self, element: ast.AST, state: State) -> State:
        """Releases, status changes, joins and escapes anywhere in ``element``."""
        if not state:
            return state
        discharged: set[str] = set()
        restatus: dict[str, str] = {}
        for node in walk_expressions(element):
            if isinstance(node, ast.Call):
                # ``owned.release_method()``.
                if (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in state
                ):
                    status = self.release_status(node.func.attr)
                    if status == "":
                        discharged.add(node.func.value.id)
                    elif status is not None:
                        restatus[node.func.value.id] = status
                    continue
                # Any owned name handed to a callee escapes.
                for sub in node.args + [kw.value for kw in node.keywords]:
                    discharged |= _names_in(sub) & state.keys()
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    discharged |= _names_in(node.value) & state.keys()
            elif isinstance(node, ast.Await):
                # ``await t`` / ``await asyncio.gather(t, ...)`` joins it.
                value = node.value
                if isinstance(value, ast.Name) and value.id in state:
                    discharged.add(value.id)
                elif isinstance(value, ast.Call):
                    for sub in walk_expressions(value):
                        if isinstance(sub, ast.Name) and sub.id in state:
                            discharged.add(sub.id)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                discharged |= self._escaping_stores(node, state)
        if not discharged and not restatus:
            return state
        new_state = {}
        for var, claim in state.items():
            if var in discharged:
                continue
            if var in restatus:
                claim = replace(claim, status=restatus[var])
            new_state[var] = claim
        return new_state

    def _escaping_stores(
        self, node: ast.Assign | ast.AnnAssign | ast.NamedExpr, state: State
    ) -> set[str]:
        """Owned names stored into non-local places (attributes, containers)."""
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        if node.value is None:
            return set()
        if all(isinstance(t, ast.Name) for t in targets) and isinstance(
            node.value, (ast.Call, ast.Name)
        ):
            return set()  # plain rebinding/move: _transfer_assign owns it
        return _names_in(node.value) & state.keys()


def _names_in(node: ast.AST) -> set[str]:
    return {
        sub.id
        for sub in walk_expressions(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }
