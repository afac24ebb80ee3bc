"""Differential oracle for the on-the-fly Hopcroft-Karp language check.

The engine decides language equivalence by Hopcroft-Karp over the bitset
macrostates of the two weak kernels
(:func:`repro.equivalence.language.subset_search`), stopping at the first
acceptance conflict.  The oracles are the routes it replaced:

* verdicts equal :func:`~repro.automata.equivalence.nfa_equivalent` on the
  two weak-language NFAs (full determinisation);
* distinguishing words verify and are no longer than the word Hopcroft-Karp
  finds on the two minimal DFAs (``Process.language_dfa``);
* ``max_states`` bounds the macrostates the search visits: it raises on a
  subset blow-up pair and answers under a bound large enough.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata.equivalence import distinguishing_word, nfa_equivalent
from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import ACCEPT, FSP
from repro.engine import Engine, Process
from repro.equivalence.language import MacroMoves, language_nfa, subset_search
from repro.generators.families import nondeterministic_counter
from repro.generators.random_fsp import random_equivalent_copy
from tests.property.strategies import fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ORACLE_SETTINGS
@given(first=fsp_strategy(max_states=6), second=fsp_strategy(max_states=6))
def test_verdicts_and_words_match_the_determinised_routes(first, second):
    verdict = Engine().check(first, second, "language")
    assert verdict.equivalent == nfa_equivalent(language_nfa(first), language_nfa(second))
    if verdict.equivalent:
        return
    assert verdict.verify_witness() is True
    dfa_word = distinguishing_word(Process(first).language_dfa(), Process(second).language_dfa())
    assert len(verdict.witness.word) <= len(dfa_word)


@ORACLE_SETTINGS
@given(first=fsp_strategy(max_states=6), second=fsp_strategy(max_states=6))
def test_repeated_searches_reuse_the_explored_moves(first, second):
    left, right = MacroMoves.from_fsp(first), MacroMoves.from_fsp(second)
    answer = subset_search(left, right, (0, 0))
    explored = len(left), len(right)
    assert subset_search(left, right, (0, 0)) == answer
    assert (len(left), len(right)) == explored
    fresh = MacroMoves.from_fsp(first), MacroMoves.from_fsp(second)
    assert subset_search(*fresh, (0, 0)) == answer


def test_max_states_bounds_the_search_on_a_subset_blowup():
    counter = nondeterministic_counter(8)  # about 2^8 macrostates
    copy = random_equivalent_copy(counter, duplicates=3, seed=1)
    with pytest.raises(StateSpaceLimitError):
        Engine().check(counter, copy, "language", max_states=50)
    assert Engine().check(counter, copy, "language", max_states=1000).equivalent
    assert Engine().check(counter, copy, "language").equivalent


def test_bounded_search_stops_at_the_first_conflict():
    # The start states already disagree on the empty word, so the search
    # answers under a bound that full determinisation would exceed.
    counter = nondeterministic_counter(8)
    flipped = FSP(
        states=counter.states,
        start=counter.start,
        alphabet=counter.alphabet,
        transitions=counter.transitions,
        variables=counter.variables,
        extensions=set(counter.extensions) | {(counter.start, ACCEPT)},
    )
    verdict = Engine().check(counter, flipped, "language", max_states=1)
    assert not verdict.equivalent
    assert verdict.witness.word == ()
    assert verdict.verify_witness() is True
