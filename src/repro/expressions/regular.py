"""Classical (language) semantics of the same expression syntax.

Section 2.3 stresses that star expressions are *syntactically* regular
expressions with a different semantics.  To make the contrast executable the
library also gives the expressions their classical reading: the language they
denote, realised by a Thompson-style construction with epsilon moves.  The
test suite uses it to check that the representative FSP of
:mod:`repro.expressions.semantics` accepts exactly the denoted language, and
the ``axioms`` module uses it to show which identities hold under which
semantics (experiment E16).  :func:`regular_equivalent` decides it with the
library's one language search: each Thompson NFA is read as a standard FSP
(:meth:`~repro.automata.nfa.NFA.to_fsp`, epsilon as tau) and
:func:`~repro.equivalence.language.subset_search` compares the two.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.automata.nfa import NFA
from repro.core.errors import ExpressionError
from repro.equivalence.language import MacroMoves, subset_search
from repro.expressions.syntax import (
    ActionExpr,
    ConcatExpr,
    EmptyExpr,
    StarExpr,
    StarExpression,
    UnionExpr,
    actions_of,
)


class _Thompson:
    """Thompson construction producing an NFA with epsilon moves."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self) -> str:
        return f"t{next(self._counter)}"

    def build(
        self, expression: StarExpression
    ) -> tuple[set[str], str, str, set[tuple[str, str | None, str]]]:
        """Return ``(states, start, accept, transitions)`` with a single accept state."""
        if isinstance(expression, EmptyExpr):
            start, accept = self.fresh(), self.fresh()
            return {start, accept}, start, accept, set()
        if isinstance(expression, ActionExpr):
            start, accept = self.fresh(), self.fresh()
            return {start, accept}, start, accept, {(start, expression.action, accept)}
        if isinstance(expression, UnionExpr):
            s1, start1, acc1, t1 = self.build(expression.left)
            s2, start2, acc2, t2 = self.build(expression.right)
            start, accept = self.fresh(), self.fresh()
            transitions = t1 | t2 | {
                (start, None, start1),
                (start, None, start2),
                (acc1, None, accept),
                (acc2, None, accept),
            }
            return s1 | s2 | {start, accept}, start, accept, transitions
        if isinstance(expression, ConcatExpr):
            s1, start1, acc1, t1 = self.build(expression.left)
            s2, start2, acc2, t2 = self.build(expression.right)
            transitions = t1 | t2 | {(acc1, None, start2)}
            return s1 | s2, start1, acc2, transitions
        if isinstance(expression, StarExpr):
            s1, start1, acc1, t1 = self.build(expression.operand)
            start, accept = self.fresh(), self.fresh()
            transitions = t1 | {
                (start, None, start1),
                (start, None, accept),
                (acc1, None, start1),
                (acc1, None, accept),
            }
            return s1 | {start, accept}, start, accept, transitions
        raise ExpressionError(f"not a star expression: {expression!r}")


def language_nfa(
    expression: StarExpression, alphabet: frozenset[str] | set[str] | None = None
) -> NFA:
    """The Thompson NFA accepting the classical language of the expression."""
    sigma = frozenset(alphabet) if alphabet is not None else actions_of(expression)
    states, start, accept, transitions = _Thompson().build(expression)
    return NFA(
        states=states,
        start=start,
        alphabet=sigma | actions_of(expression),
        transitions=transitions,
        accepting={accept},
    )


def denotes(expression: StarExpression, word: Sequence[str]) -> bool:
    """Membership of ``word`` in the classical language of the expression."""
    return language_nfa(expression).accepts(word)


def language_upto(expression: StarExpression, max_length: int) -> frozenset[tuple[str, ...]]:
    """All words of length at most ``max_length`` in the classical language."""
    return language_nfa(expression).language_upto(max_length)


def regular_equivalent(
    first: StarExpression,
    second: StarExpression,
    alphabet: frozenset[str] | set[str] | None = None,
    max_states: int | None = None,
) -> bool:
    """Classical language equivalence of two expressions.

    This is the PSPACE-complete regular-expression equivalence problem of
    Stockmeyer & Meyer (1973), the baseline the paper's CCS-equivalence
    problem refines.  Both Thompson NFAs are taken over the joint alphabet
    and compared by one subset search; ``max_states`` bounds the non-empty
    macrostates it visits on either side.
    """
    sigma = frozenset(alphabet or ()) | actions_of(first) | actions_of(second)
    left, right = (MacroMoves.from_fsp(language_nfa(e, sigma).to_fsp()) for e in (first, second))
    return subset_search(left, right, (0, 0), max_states) is None
