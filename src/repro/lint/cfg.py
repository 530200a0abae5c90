"""Per-function control-flow graphs for the flow-sensitive checker.

The AST-pattern checkers (RL001–RL006) see *syntax*; RL010's task-join
check needs *paths*: a task awaited on one branch but skipped by an early
return or an ``except`` arm.  This module lowers one function body into a
conservative CFG that the :mod:`repro.lint.dataflow` fixpoint walks.

Shape of the graph:

* one **element** per block — a simple statement, or a :class:`Marker`
  standing in for the evaluation of a structural piece (an ``if``/``while``
  test, a ``with`` enter/exit, an ``except`` binding, a ``for`` iteration).
  Tiny blocks keep transfer functions trivial and make exception edges
  precise to the statement;
* two distinguished exits — :attr:`CFG.exit` (normal return) and
  :attr:`CFG.raise_exit` (an exception escaping the function).  RL010
  reads the dataflow fact at the normal exit;
* every element that can raise carries an ``exception`` edge to the
  innermost construct that would observe it (an ``except`` dispatch, a
  ``finally`` body, a ``with`` exit, or the raise exit);
* ``finally`` bodies — and ``with`` exits, which are ``finally`` sugar —
  are **copied per continuation** (normal fall-through, exception
  propagation, each ``return``/``break``/``continue`` route), so facts on
  the exceptional path never leak into the normal one through a shared
  block.  Copies are memoised per (construct, continuation), keeping the
  graph linear in practice.

The graph is intentionally conservative: boolean short-circuits evaluate
atomically, every call may raise, ``except`` clauses may match anything.
A may-analysis over this graph over-approximates real executions, which is
the right polarity for a linter — a path that cannot happen can only add a
finding, never hide one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Edge kinds.  Dataflow treats ``exception`` edges specially (they carry
#: the pre-state of the raising element); every other edge is ``next``.
KIND_NEXT = "next"
KIND_EXCEPTION = "exception"

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class Marker:
    """A structural pseudo-element occupying one CFG block.

    ``kind`` is one of ``test`` (an ``if``/``while`` condition), ``loop_iter``
    (one ``for`` iteration: evaluate the iterator / bind the target),
    ``with_enter`` / ``with_exit`` (one ``with`` item's ``__enter__`` /
    ``__exit__``; ``exit`` markers appear on the normal *and* the
    exceptional path), ``except_enter`` (an ``except`` clause matching and
    binding) and ``except_dispatch`` (the point where a raised exception
    picks a handler).
    """

    kind: str
    node: ast.AST


Element = ast.stmt | Marker


@dataclass
class Edge:
    dst: int
    kind: str


@dataclass
class Block:
    id: int
    element: Element | None = None
    succs: list[Edge] = field(default_factory=list)
    preds: list[Edge] = field(default_factory=list)


class CFG:
    """The control-flow graph of one function (or module) body."""

    def __init__(self, owner: ast.AST) -> None:
        self.owner = owner
        self.blocks: list[Block] = []
        self.entry = self.new_block().id
        self.exit = self.new_block().id
        self.raise_exit = self.new_block().id

    def new_block(self, element: Element | None = None) -> Block:
        block = Block(id=len(self.blocks), element=element)
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int, kind: str = KIND_NEXT) -> None:
        for edge in self.blocks[src].succs:
            if edge.dst == dst and edge.kind == kind:
                return
        edge = Edge(dst, kind)
        self.blocks[src].succs.append(edge)
        self.blocks[dst].preds.append(edge)


def _can_raise(element: Element) -> bool:
    """Whether executing ``element`` may raise (conservative default: yes)."""
    if isinstance(element, Marker):
        return element.kind != "except_dispatch"
    if isinstance(element, (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)):
        return False
    if isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Defining a function cannot raise in any way a flow rule tracks.
        return False
    return True


@dataclass
class _FinallyScope:
    """One enclosing construct a non-local jump must run on the way out."""

    #: ``("finally", <stmt list>)`` or ``("with", <withitem>)``.
    payload: tuple
    #: Exception target in force *outside* the construct (where an
    #: exception raised by the finally body itself propagates).
    outer_exc: int
    #: ``len(builder.loops)`` when the scope was entered — jumps out of a
    #: loop only thread through scopes opened inside that loop.
    loop_depth: int


class _Loop:
    def __init__(self, continue_target: int, break_target: int, scope_depth: int) -> None:
        self.continue_target = continue_target
        self.break_target = break_target
        self.scope_depth = scope_depth


class _Builder:
    def __init__(self, owner: ast.AST) -> None:
        self.cfg = CFG(owner)
        self.exc_targets: list[int] = [self.cfg.raise_exit]
        self.scopes: list[_FinallyScope] = []
        self.loops: list[_Loop] = []
        #: Memoised cleanup copies: (id(scope payload), continuation) -> entry.
        self._copies: dict[tuple[int, int], int] = {}

    # -- plumbing -----------------------------------------------------------

    @property
    def exc_target(self) -> int:
        return self.exc_targets[-1]

    def element_block(self, element: Element, pred: int | None) -> int:
        """Append ``element`` in its own block after ``pred`` (if reachable)."""
        block = self.cfg.new_block(element)
        if pred is not None:
            self.cfg.add_edge(pred, block.id)
        if _can_raise(element):
            self.cfg.add_edge(block.id, self.exc_target, KIND_EXCEPTION)
        return block.id

    def join_block(self, *preds: int | None) -> int:
        block = self.cfg.new_block()
        for pred in preds:
            if pred is not None:
                self.cfg.add_edge(pred, block.id)
        return block.id

    def route_out(self, target: int, scope_depth: int) -> int:
        """Entry of the cleanup chain running scopes above ``scope_depth``.

        A ``return`` (``scope_depth=0``), ``break`` or ``continue`` does not
        jump straight to its target: every ``finally`` body and ``with``
        exit opened since ``scope_depth`` runs first, innermost first.  The
        copies are memoised, so ten returns share one chain.
        """
        entry = target
        for scope in self.scopes[scope_depth:]:
            entry = self._cleanup_copy(scope, entry)
        return entry

    def _cleanup_copy(self, scope: _FinallyScope, continuation: int) -> int:
        key = (id(scope.payload), continuation)
        if key in self._copies:
            return self._copies[key]
        if scope.payload[0] == "with":
            block = self.cfg.new_block(Marker("with_exit", scope.payload[1]))
            self.cfg.add_edge(block.id, continuation)
            self.cfg.add_edge(block.id, scope.outer_exc, KIND_EXCEPTION)
            entry = block.id
        else:
            _, body = scope.payload
            saved = (self.exc_targets, self.scopes, self.loops)
            # The copy runs outside the construct: exceptions inside it hit
            # the construct's outer target, and jumps may not cross it.
            self.exc_targets = [scope.outer_exc]
            keep = len(self.scopes)
            for index, open_scope in enumerate(self.scopes):
                if open_scope is scope:
                    keep = index
                    break
            self.scopes = self.scopes[:keep]
            self.loops = self.loops[: scope.loop_depth]
            entry_block = self.join_block()
            tail = self.build_body(body, entry_block)
            if tail is not None:
                self.cfg.add_edge(tail, continuation)
            self.exc_targets, self.scopes, self.loops = saved
            entry = entry_block
        self._copies[key] = entry
        return entry

    # -- statement lowering -------------------------------------------------

    def build_body(self, body: list[ast.stmt], pred: int | None) -> int | None:
        """Lower a statement list; returns the fall-through block (or None)."""
        current = pred
        for stmt in body:
            if current is None:
                break  # unreachable code after return/raise/break
            current = self.build_stmt(stmt, current)
        return current

    def build_stmt(self, stmt: ast.stmt, pred: int) -> int | None:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, pred)
        if isinstance(stmt, ast.While):
            return self._build_while(stmt, pred)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._build_for(stmt, pred)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, pred)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, pred)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, pred)
        if isinstance(stmt, ast.Return):
            block = self.element_block(stmt, pred)
            self.cfg.add_edge(block, self.route_out(self.cfg.exit, 0))
            return None
        if isinstance(stmt, ast.Raise):
            block = self.element_block(stmt, pred)
            # The exception edge added by element_block is the only way out.
            return None
        if isinstance(stmt, ast.Break):
            block = self.element_block(stmt, pred)
            loop = self.loops[-1] if self.loops else None
            if loop is not None:
                self.cfg.add_edge(block, self.route_out(loop.break_target, loop.scope_depth))
            return None
        if isinstance(stmt, ast.Continue):
            block = self.element_block(stmt, pred)
            loop = self.loops[-1] if self.loops else None
            if loop is not None:
                self.cfg.add_edge(block, self.route_out(loop.continue_target, loop.scope_depth))
            return None
        # Simple statement (assignment, expression, import, nested def, ...).
        return self.element_block(stmt, pred)

    def _build_if(self, stmt: ast.If, pred: int) -> int | None:
        test = self.element_block(Marker("test", stmt.test), pred)
        then_tail = self.build_body(stmt.body, self._arm(test))
        else_tail = self.build_body(stmt.orelse, self._arm(test)) if stmt.orelse else test
        if then_tail is None and else_tail is None:
            return None
        return self.join_block(then_tail, else_tail)

    def _arm(self, test: int) -> int:
        arm = self.cfg.new_block()
        self.cfg.add_edge(test, arm.id)
        return arm.id

    def _is_const_true(self, expr: ast.expr) -> bool:
        return isinstance(expr, ast.Constant) and bool(expr.value) is True

    def _build_while(self, stmt: ast.While, pred: int) -> int | None:
        head = self.join_block(pred)
        test = self.element_block(Marker("test", stmt.test), head)
        after = self.join_block()
        self.loops.append(_Loop(head, after, len(self.scopes)))
        body_tail = self.build_body(stmt.body, self._arm(test))
        if body_tail is not None:
            self.cfg.add_edge(body_tail, head)
        self.loops.pop()
        exits_normally = not self._is_const_true(stmt.test)
        if exits_normally:
            else_tail = (
                self.build_body(stmt.orelse, self._arm(test))
                if stmt.orelse
                else self._arm(test)
            )
            if else_tail is not None:
                self.cfg.add_edge(else_tail, after)
        return after if self.cfg.blocks[after].preds else None

    def _build_for(self, stmt: ast.For | ast.AsyncFor, pred: int) -> int | None:
        head = self.join_block(pred)
        step = self.element_block(Marker("loop_iter", stmt), head)
        after = self.join_block()
        self.loops.append(_Loop(head, after, len(self.scopes)))
        body_tail = self.build_body(stmt.body, step)
        if body_tail is not None:
            self.cfg.add_edge(body_tail, head)
        self.loops.pop()
        else_tail = self.build_body(stmt.orelse, head) if stmt.orelse else head
        if else_tail is not None:
            self.cfg.add_edge(else_tail, after)
        return after if self.cfg.blocks[after].preds else None

    def _build_with(self, stmt: ast.With | ast.AsyncWith, pred: int) -> int | None:
        current: int | None = pred
        opened: list[_FinallyScope] = []
        for item in stmt.items:
            assert current is not None
            current = self.element_block(Marker("with_enter", item), current)
            scope = _FinallyScope(("with", item), self.exc_target, len(self.loops))
            self.scopes.append(scope)
            opened.append(scope)
            # While the body runs, an escaping exception executes __exit__
            # before propagating: thread it through the exceptional copy.
            self.exc_targets.append(self._cleanup_copy(scope, self.exc_target))
        body_tail = self.build_body(stmt.body, current)
        for scope in reversed(opened):
            self.exc_targets.pop()
            self.scopes.pop()
            if body_tail is not None:
                body_tail = self.element_block(Marker("with_exit", scope.payload[1]), body_tail)
        return body_tail

    def _build_try(self, stmt: ast.Try, pred: int) -> int | None:
        outer_exc = self.exc_target
        after = self.join_block()
        scope: _FinallyScope | None = None
        if stmt.finalbody:
            scope = _FinallyScope(("finally", stmt.finalbody), outer_exc, len(self.loops))
        fin_normal = self._cleanup_copy(scope, after) if scope else after
        fin_exc = self._cleanup_copy(scope, outer_exc) if scope else outer_exc

        if stmt.handlers:
            dispatch = self.cfg.new_block(Marker("except_dispatch", stmt)).id
            # No handler matches: the exception keeps propagating (through
            # the finally body, on the exceptional copy).
            self.cfg.add_edge(dispatch, fin_exc, KIND_EXCEPTION)
            body_exc = dispatch
        else:
            body_exc = fin_exc

        if scope:
            self.scopes.append(scope)
        self.exc_targets.append(body_exc)
        body_tail = self.build_body(stmt.body, pred)
        self.exc_targets.pop()

        tails: list[int | None] = []
        if stmt.handlers:
            self.exc_targets.append(fin_exc)
            for handler in stmt.handlers:
                enter = self.element_block(Marker("except_enter", handler), None)
                self.cfg.add_edge(dispatch, enter, KIND_EXCEPTION)
                tails.append(self.build_body(handler.body, enter))
            self.exc_targets.pop()
        if body_tail is not None and stmt.orelse:
            self.exc_targets.append(fin_exc)
            body_tail = self.build_body(stmt.orelse, body_tail)
            self.exc_targets.pop()
        tails.append(body_tail)
        if scope:
            self.scopes.pop()

        for tail in tails:
            if tail is not None:
                self.cfg.add_edge(tail, fin_normal)
        return after if self.cfg.blocks[after].preds else None

    def _build_match(self, stmt: ast.Match, pred: int) -> int | None:
        subject = self.element_block(Marker("test", stmt.subject), pred)
        tails: list[int | None] = []
        exhaustive = False
        for case in stmt.cases:
            arm = self.element_block(Marker("test", case.pattern), subject)
            tails.append(self.build_body(case.body, arm))
            if isinstance(case.pattern, ast.MatchAs) and case.pattern.pattern is None:
                exhaustive = case.guard is None
        if not exhaustive:
            tails.append(subject)  # no case matched
        live = [tail for tail in tails if tail is not None]
        if not live:
            return None
        return self.join_block(*live)


def build_cfg(func: FunctionNode) -> CFG:
    """The CFG of one ``def``/``async def`` body (nested defs are opaque)."""
    builder = _Builder(func)
    entry = builder.cfg.entry
    tail = builder.build_body(func.body, entry)
    if tail is not None:
        builder.cfg.add_edge(tail, builder.cfg.exit)
    return builder.cfg


def function_defs(tree: ast.AST) -> list[FunctionNode]:
    """Every function definition in ``tree``, outermost first."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
