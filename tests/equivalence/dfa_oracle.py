"""Language questions by full determinisation: the subset search's oracle.

The library answers every language question with one on-the-fly
Hopcroft-Karp search (:func:`repro.equivalence.language.subset_search`).
This is the classical route, kept short: determinise each NFA over the
joint alphabet (:func:`repro.automata.determinize`, which raises beyond
``max_states`` non-empty macrostates), then search the product of the two
DFAs breadth-first, without merging pairs, for a shortest word whose pair
of states conflicts.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Callable

from repro.automata import DFA, NFA, determinize

#: Whether two acceptance flags, left then right, answer the question.
Conflict = Callable[[bool, bool], bool]


def product_word(first: DFA, second: DFA, conflict: Conflict) -> tuple[str, ...] | None:
    """A shortest word leading the two DFAs to a conflicting pair, or None."""
    start = (first.start, second.start)
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        (left, right), word = queue.popleft()
        if conflict(left in first.accepting, right in second.accepting):
            return word
        for symbol in sorted(first.alphabet):
            pair = first.transition(left, symbol), second.transition(right, symbol)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (symbol,)))
    return None


def _word(first: NFA, second: NFA, conflict: Conflict, max_states: int | None):
    alphabet = first.alphabet | second.alphabet
    dfas = (
        determinize(NFA(n.states, n.start, alphabet, n.transitions, n.accepting), max_states)
        for n in (first, second)
    )
    return product_word(*dfas, conflict)


def distinguishing_word(first: NFA, second: NFA, max_states: int | None = None):
    """A shortest word in exactly one of the two languages, or None when they are equal."""
    return _word(first, second, operator.ne, max_states)


def inclusion_counterexample(first: NFA, second: NFA, max_states: int | None = None):
    """A shortest word of ``L(first)`` outside ``L(second)``, or None when included."""
    return _word(first, second, lambda left, right: left and not right, max_states)


def universality_counterexample(nfa: NFA, max_states: int | None = None):
    """A shortest word outside ``L(nfa)``, or None when it is universal."""
    loops = [("*", symbol, "*") for symbol in nfa.alphabet]
    return inclusion_counterexample(NFA(["*"], "*", nfa.alphabet, loops, ["*"]), nfa, max_states)
