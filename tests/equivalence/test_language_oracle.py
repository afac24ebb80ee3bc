"""Differential oracle for the on-the-fly Hopcroft-Karp language search.

Every language decision of the library is one
:func:`repro.equivalence.language.subset_search` over bitset macrostates,
stopping at the first acceptance conflict.  The oracle is the classical
route, kept in the tests (``tests/equivalence/dfa_oracle.py``): determinise
both NFAs, then search the product of the two DFAs breadth-first.

* the engine's verdicts equal the oracle's on the two weak-language NFAs,
  and its words verify and have the oracle's (shortest) length;
* the free deciders -- ``language_equivalent``,
  ``language_distinguishing_word``, ``language_included``,
  ``is_universal`` and ``universality_counterexample`` -- give the
  oracle's verdicts, and their words separate and have the oracle's
  length;
* ``max_states`` bounds the non-empty macrostates the search visits, so
  under any bound a decider answers wherever the oracle, determinising
  within the bound, answers (inclusion excepted: its left side visits
  unions of the two sides' macrostates); the engine's check raises on a
  subset blow-up pair and answers under a bound large enough.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import ACCEPT, FSP
from repro.engine import Engine
from repro.equivalence.language import (
    MacroMoves,
    is_universal,
    language_distinguishing_word,
    language_equivalent,
    language_included,
    language_nfa,
    subset_search,
    universality_counterexample,
)
from repro.generators.families import nondeterministic_counter
from repro.generators.random_fsp import random_equivalent_copy
from tests.equivalence import dfa_oracle
from tests.equivalence.test_subset_oracle import BOUNDS, _answer
from tests.property.strategies import fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _length(word: tuple[str, ...] | None) -> int | None:
    return None if word is None else len(word)


@ORACLE_SETTINGS
@given(first=fsp_strategy(max_states=6), second=fsp_strategy(max_states=6))
def test_verdicts_and_words_match_the_determinised_routes(first, second):
    verdict = Engine().check(first, second, "language")
    expected = dfa_oracle.distinguishing_word(language_nfa(first), language_nfa(second))
    assert verdict.equivalent == (expected is None)
    if verdict.equivalent:
        return
    assert verdict.verify_witness() is True
    assert len(verdict.witness.word) == len(expected)


@ORACLE_SETTINGS
@given(fsp=fsp_strategy(max_states=6), data=st.data())
def test_free_equivalence_and_words_match_the_oracle(fsp, data):
    states = sorted(fsp.states)
    first, second = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    left, right = language_nfa(fsp, first), language_nfa(fsp, second)
    expected = dfa_oracle.distinguishing_word(left, right)
    word = language_distinguishing_word(fsp, first, second)
    assert language_equivalent(fsp, first, second) == (word is None) == (expected is None)
    assert _length(word) == _length(expected)
    if word is not None:
        assert left.accepts(word) != right.accepts(word)


@ORACLE_SETTINGS
@given(fsp=fsp_strategy(max_states=6), data=st.data())
def test_free_inclusion_and_universality_match_the_oracle(fsp, data):
    states = sorted(fsp.states)
    first, second = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    left, right = language_nfa(fsp, first), language_nfa(fsp, second)
    expected = dfa_oracle.inclusion_counterexample(left, right)
    assert language_included(fsp, first, second) == (expected is None)
    word = universality_counterexample(fsp, first)
    expected = dfa_oracle.universality_counterexample(left)
    assert is_universal(fsp, first) == (word is None) == (expected is None)
    assert _length(word) == _length(expected)
    if word is not None:
        assert not left.accepts(word)


@ORACLE_SETTINGS
@given(fsp=fsp_strategy(max_states=6), bound=st.sampled_from(BOUNDS), data=st.data())
def test_bounded_free_deciders_answer_wherever_the_oracle_does(fsp, bound, data):
    states = sorted(fsp.states)
    first, second = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    left, right = language_nfa(fsp, first), language_nfa(fsp, second)
    word, answered = _answer(dfa_oracle.distinguishing_word, left, right, max_states=bound)
    if answered:
        found = language_distinguishing_word(fsp, first, second, max_states=bound)
        assert _length(found) == _length(word)
        assert language_equivalent(fsp, first, second, max_states=bound) == (word is None)
    word, answered = _answer(dfa_oracle.universality_counterexample, left, max_states=bound)
    if answered:
        found = universality_counterexample(fsp, first, max_states=bound)
        assert _length(found) == _length(word)
        assert is_universal(fsp, first, max_states=bound) == (word is None)
    included, answered = _answer(language_included, fsp, first, second, max_states=bound)
    if answered:
        assert included == (dfa_oracle.inclusion_counterexample(left, right) is None)


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
