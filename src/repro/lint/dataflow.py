"""Generic forward dataflow over :mod:`repro.lint.cfg` graphs.

An analysis supplies a join-semilattice of facts and a transfer function
over CFG elements; :func:`run_forward` iterates a worklist to the fixpoint
and hands back the fact flowing *into* every block.  The checker then
reads the fact at the normal exit once — findings are never emitted from
inside the fixpoint, where a transfer can run many times.

Exception edges are the one asymmetry: an edge of kind ``exception`` out
of element ``E`` carries :meth:`ForwardAnalysis.exception_state`, which
defaults to the join of the pre- and post-state — if ``E`` raised, it may
have executed partially.  Analyses override it where the element's effect
is atomic-on-success (``t = asyncio.create_task(...)``: if the call
raised, nothing was bound, so only the pre-state escapes).

Facts must be immutable values with structural equality (frozensets,
tuples of pairs); the framework never mutates them.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.lint.cfg import CFG, KIND_EXCEPTION, Element

State = TypeVar("State")


class ForwardAnalysis(Generic[State]):
    """One dataflow problem: initial fact, join, transfer."""

    def initial(self) -> State:
        """The fact at function entry."""
        raise NotImplementedError

    def join(self, left: State, right: State) -> State:
        """Least upper bound of two facts (control-flow merge)."""
        raise NotImplementedError

    def transfer(self, element: Element, state: State) -> State:
        """The fact after executing ``element`` normally."""
        raise NotImplementedError

    def exception_state(self, element: Element, pre: State, post: State) -> State:
        """The fact escaping ``element`` on its exception edge."""
        return self.join(pre, post)


class DataflowResult(Generic[State]):
    """Fixpoint facts for one CFG: the fact entering every reachable block."""

    def __init__(self, cfg: CFG, in_facts: dict[int, State]) -> None:
        self.cfg = cfg
        self.in_facts = in_facts

    @property
    def at_exit(self) -> State | None:
        """The fact on normal function exit (every ``return`` joined; None
        when no path returns)."""
        return self.in_facts.get(self.cfg.exit)


def run_forward(cfg: CFG, analysis: ForwardAnalysis[State]) -> DataflowResult[State]:
    """Worklist fixpoint of ``analysis`` over ``cfg``.

    Blocks hold at most one element, so one step is: read the in-fact,
    apply the transfer, propagate along every out-edge (the exceptional
    fact along ``exception`` edges), and re-queue successors whose in-fact
    grew.  Termination relies on the analysis lattice having finite height
    — true for all shipped rules, whose facts are sets over program
    entities.
    """
    in_facts: dict[int, State] = {cfg.entry: analysis.initial()}
    work: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    while work:
        block_id = work.popleft()
        queued.discard(block_id)
        block = cfg.blocks[block_id]
        pre = in_facts[block_id]
        post = analysis.transfer(block.element, pre) if block.element is not None else pre
        for edge in block.succs:
            fact = post
            if edge.kind == KIND_EXCEPTION and block.element is not None:
                fact = analysis.exception_state(block.element, pre, post)
            if edge.dst in in_facts:
                merged = analysis.join(in_facts[edge.dst], fact)
                if merged == in_facts[edge.dst]:
                    continue
                in_facts[edge.dst] = merged
            else:
                in_facts[edge.dst] = fact
            if edge.dst not in queued:
                queued.add(edge.dst)
                work.append(edge.dst)
    return DataflowResult(cfg, in_facts)
