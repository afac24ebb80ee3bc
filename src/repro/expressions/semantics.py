"""Representative-FSP semantics of star expressions (Definition 2.3.1, Fig. 3).

The semantics of a star expression ``r`` is the class of observable, standard
FSPs whose start states are strongly equivalent to the start state of the
*representative* FSP of ``r``, constructed inductively:

* ``0``        -- a single non-accepting state with no transitions;
* ``a``        -- two states ``p --a--> q`` with only ``q`` accepting;
* ``r1 u r2``  -- a fresh start state that copies the outgoing transitions and
  the acceptance of both operands' start states;
* ``r1 . r2``  -- the accepting states of ``r1`` acquire copies of the
  outgoing transitions of ``r2``'s start state; acceptance is taken from
  ``r2`` (an accepting state of ``r1`` stays accepting exactly when ``r2``'s
  start state is accepting, so that the represented language is
  ``L(r1).L(r2)``);
* ``r1*``      -- a fresh accepting start state copying ``r1``'s start moves,
  and every accepting state of ``r1`` additionally copies ``r1``'s start
  moves (closing the loop).

The construction mirrors the classical NFA construction for regular
expressions but deliberately introduces **no tau/epsilon moves**, because the
semantics is a *strong*-equivalence class and must therefore be represented by
an observable process.  Lemma 2.3.1: the representative FSP of an expression
of length ``n`` has ``O(n)`` states and ``O(n^2)`` transitions and is built in
``O(n^2)`` time -- the ``representative_fsp`` cells of the benchmark's
``experiments`` layer (experiment E4) measure exactly these quantities.

Note on the concatenation case: the journal text displays the extension set of
``r1 . r2`` as ``E2`` only; read literally that would make the representative
of ``a . b*`` reject the string ``a`` and break the correspondence with the
regular-expression reading that Section 2.3 builds on (and that Lemma 4.2's
use of expressions like ``a . p`` relies on).  We therefore keep accepting
states of ``r1`` accepting when ``r2``'s start state is accepting, which is
the standard epsilon-free concatenation and preserves the denoted language;
``tests/expressions/test_semantics.py`` cross-checks the construction against
an independent Thompson-style language semantics.
"""

from __future__ import annotations

import itertools

from repro.core.errors import ExpressionError
from repro.core.fsp import ACCEPT, FSP
from repro.expressions.syntax import (
    ActionExpr,
    ConcatExpr,
    EmptyExpr,
    StarExpr,
    StarExpression,
    UnionExpr,
    actions_of,
)


class _Construction:
    """Mutable state for the inductive construction (fresh-name supply)."""

    def __init__(self, alphabet: frozenset[str]) -> None:
        self.alphabet = alphabet
        self._counter = itertools.count()

    def fresh(self) -> str:
        return f"s{next(self._counter)}"

    # ------------------------------------------------------------------
    # each case returns (states, start, transitions, accepting)
    # ------------------------------------------------------------------
    def build(
        self, expression: StarExpression
    ) -> tuple[set[str], str, set[tuple[str, str, str]], set[str]]:
        if isinstance(expression, EmptyExpr):
            start = self.fresh()
            return {start}, start, set(), set()
        if isinstance(expression, ActionExpr):
            start, end = self.fresh(), self.fresh()
            return {start, end}, start, {(start, expression.action, end)}, {end}
        if isinstance(expression, UnionExpr):
            return self._union(expression)
        if isinstance(expression, ConcatExpr):
            return self._concat(expression)
        if isinstance(expression, StarExpr):
            return self._star(expression)
        raise ExpressionError(f"not a star expression: {expression!r}")

    def _union(
        self, expression: UnionExpr
    ) -> tuple[set[str], str, set[tuple[str, str, str]], set[str]]:
        states1, start1, trans1, accept1 = self.build(expression.left)
        states2, start2, trans2, accept2 = self.build(expression.right)
        start = self.fresh()
        states = states1 | states2 | {start}
        transitions = set(trans1) | set(trans2)
        for src, action, dst in trans1:
            if src == start1:
                transitions.add((start, action, dst))
        for src, action, dst in trans2:
            if src == start2:
                transitions.add((start, action, dst))
        accepting = set(accept1) | set(accept2)
        if start1 in accept1 or start2 in accept2:
            accepting.add(start)
        return states, start, transitions, accepting

    def _concat(
        self, expression: ConcatExpr
    ) -> tuple[set[str], str, set[tuple[str, str, str]], set[str]]:
        states1, start1, trans1, accept1 = self.build(expression.left)
        states2, start2, trans2, accept2 = self.build(expression.right)
        states = states1 | states2
        transitions = set(trans1) | set(trans2)
        start2_moves = [(action, dst) for src, action, dst in trans2 if src == start2]
        for accepting_state in accept1:
            for action, dst in start2_moves:
                transitions.add((accepting_state, action, dst))
        accepting = set(accept2)
        if start2 in accept2:
            accepting |= set(accept1)
        return states, start1, transitions, accepting

    def _star(
        self, expression: StarExpr
    ) -> tuple[set[str], str, set[tuple[str, str, str]], set[str]]:
        states1, start1, trans1, accept1 = self.build(expression.operand)
        start = self.fresh()
        states = states1 | {start}
        transitions = set(trans1)
        start1_moves = [(action, dst) for src, action, dst in trans1 if src == start1]
        for action, dst in start1_moves:
            transitions.add((start, action, dst))
        for accepting_state in accept1:
            for action, dst in start1_moves:
                transitions.add((accepting_state, action, dst))
        accepting = set(accept1) | {start}
        return states, start, transitions, accepting


def representative_fsp(
    expression: StarExpression,
    alphabet: frozenset[str] | set[str] | None = None,
    prune_unreachable: bool = False,
) -> FSP:
    """The representative FSP of a star expression.

    Parameters
    ----------
    expression:
        The star expression.
    alphabet:
        The ambient alphabet ``Sigma``; defaults to the actions occurring in
        the expression.  Supplying a larger alphabet matters for equivalence
        checks between expressions over different action sets.
    prune_unreachable:
        The literal construction of Definition 2.3.1 keeps the operand start
        states even when the new start state of a union/star makes them
        unreachable.  Passing True drops unreachable states, which never
        changes the strong-equivalence class of the start state.

    Returns
    -------
    FSP
        An observable, standard FSP (Lemma 2.3.1) whose start state represents
        the expression's semantics.
    """
    sigma = frozenset(alphabet) if alphabet is not None else actions_of(expression)
    construction = _Construction(sigma)
    states, start, transitions, accepting = construction.build(expression)
    process = FSP(
        states=states,
        start=start,
        alphabet=sigma | actions_of(expression),
        transitions=transitions,
        variables=[ACCEPT],
        extensions=[(state, ACCEPT) for state in accepting],
    )
    return process.restrict_to_reachable() if prune_unreachable else process


def construction_size(expression: StarExpression) -> tuple[int, int]:
    """The ``(states, transitions)`` size of the representative FSP.

    Lemma 2.3.1 bounds these by ``O(n)`` and ``O(n^2)`` respectively in the
    length ``n`` of the expression; experiment E4 plots the measured values
    against those bounds.
    """
    process = representative_fsp(expression)
    return process.num_states, process.num_transitions
