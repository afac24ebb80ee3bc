"""Language equivalence, inclusion and universality of DFAs and NFAs.

Each case is decided twice: by the tests' determinising oracle
(``tests/equivalence/dfa_oracle.py``), and by the library's free deciders
on the automata read as FSPs (:meth:`~repro.automata.nfa.NFA.to_fsp`,
epsilon as tau), two automata side by side in one disjoint union.
"""

from __future__ import annotations

import operator

import pytest

from repro.automata.dfa import DFA, determinize
from repro.automata.nfa import NFA
from repro.core.errors import InvalidProcessError
from repro.equivalence.language import (
    MacroMoves,
    is_universal,
    language_distinguishing_word,
    language_equivalent,
    language_included,
    subset_search,
    universality_counterexample,
)
from tests.equivalence import dfa_oracle


def _dfa_ends_with_a(accepting: tuple[str, ...] = ("y",)) -> DFA:
    return DFA(
        states=["n", "y"],
        start="n",
        alphabet=["a", "b"],
        delta={("n", "a"): "y", ("n", "b"): "n", ("y", "a"): "y", ("y", "b"): "n"},
        accepting=accepting,
    )


def _dfa_ends_with_a_redundant() -> DFA:
    return DFA(
        states=["n", "y", "y2"],
        start="n",
        alphabet=["a", "b"],
        delta={
            ("n", "a"): "y",
            ("n", "b"): "n",
            ("y", "a"): "y2",
            ("y", "b"): "n",
            ("y2", "a"): "y",
            ("y2", "b"): "n",
        },
        accepting=["y", "y2"],
    )


def _even_as(accepting: str = "even") -> NFA:
    """Words over {a, b} with an even number of ``a``; accepting ``odd``, the complement."""
    arcs = [("even", "a", "odd"), ("odd", "a", "even"), ("even", "b", "even"), ("odd", "b", "odd")]
    return NFA(["even", "odd"], "even", ["a", "b"], arcs, [accepting])


def _union(first: NFA, second: NFA) -> NFA:
    """``L(first) | L(second)``: a fresh start with epsilon moves to the two, renamed apart."""
    states, arcs, accepting = ["u"], [], []
    for tag, nfa in (("L:", first), ("R:", second)):
        states += [tag + state for state in nfa.states]
        arcs += [(tag + src, symbol, tag + dst) for src, symbol, dst in nfa.transitions]
        arcs.append(("u", None, tag + nfa.start))
        accepting += [tag + state for state in nfa.accepting]
    return NFA(states, "u", first.alphabet | second.alphabet, arcs, accepting)


def as_nfa(dfa: DFA) -> NFA:
    """The DFA as an NFA with the same moves."""
    arcs = [
        (state, symbol, dfa.transition(state, symbol))
        for state in dfa.states
        for symbol in dfa.alphabet
    ]
    return NFA(dfa.states, dfa.start, dfa.alphabet, arcs, dfa.accepting)


def side_by_side(first: NFA, second: NFA):
    """One FSP holding both automata, and the names of their start states."""
    union = first.to_fsp().disjoint_union(second.to_fsp())
    return union, "L:" + first.start, "R:" + second.start


def _word(first: NFA, second: NFA) -> tuple[str, ...] | None:
    """The distinguishing word of the free decider, checked against the oracle's."""
    word = language_distinguishing_word(*side_by_side(first, second))
    expected = dfa_oracle.distinguishing_word(first, second)
    assert (word is None) == (expected is None)
    if word is not None:
        assert len(word) == len(expected)
        assert first.accepts(word) != second.accepts(word)
    return word


def _included(first: NFA, second: NFA) -> bool:
    """The free decider's inclusion verdict, checked against the oracle's."""
    included = language_included(*side_by_side(first, second))
    assert included == (dfa_oracle.inclusion_counterexample(first, second) is None)
    return included


def _universal(nfa: NFA) -> bool:
    """The free deciders' universality verdict, checked against the oracle's."""
    fsp = nfa.to_fsp()
    counterexample = universality_counterexample(fsp)
    expected = dfa_oracle.universality_counterexample(nfa)
    assert is_universal(fsp) == (counterexample is None) == (expected is None)
    if counterexample is not None:
        assert len(counterexample) == len(expected)
        assert not nfa.accepts(counterexample)
    return counterexample is None


class TestDfaEquivalence:
    def test_equivalent_dfas(self):
        first, second = _dfa_ends_with_a(), _dfa_ends_with_a_redundant()
        assert dfa_oracle.product_word(first, second, operator.ne) is None
        assert language_equivalent(*side_by_side(as_nfa(first), as_nfa(second)))

    def test_inequivalent_dfas_with_witness(self):
        # The complement: the same moves, the other states accepting.
        first, second = _dfa_ends_with_a(), _dfa_ends_with_a(accepting=("n",))
        assert dfa_oracle.product_word(first, second, operator.ne) == ()
        assert _word(as_nfa(first), as_nfa(second)) == ()

    def test_alphabet_mismatch_rejected(self):
        other = DFA(["p"], "p", ["z"], {("p", "z"): "p"}, ["p"])
        tables = (MacroMoves.from_fsp(as_nfa(dfa).to_fsp()) for dfa in (_dfa_ends_with_a(), other))
        with pytest.raises(InvalidProcessError):
            subset_search(*tables, (0, 0))

    def test_inclusion(self):
        ends_with_a = as_nfa(_dfa_ends_with_a())
        everything = as_nfa(DFA(["u"], "u", ["a", "b"], {("u", "a"): "u", ("u", "b"): "u"}, ["u"]))
        assert _included(ends_with_a, everything)
        assert not _included(everything, ends_with_a)


class TestNfaEquivalence:
    def test_thompson_style_equivalence(self):
        first = NFA(["s", "f"], "s", ["a"], [("s", "a", "f"), ("f", "a", "f")], ["f"])
        second = NFA(
            ["s", "m", "f"],
            "s",
            ["a"],
            [("s", "a", "m"), ("m", None, "f"), ("f", "a", "f")],
            ["f"],
        )
        assert _word(first, second) is None
        assert language_equivalent(*side_by_side(first, second))

    def test_inequivalence_witness_is_short(self):
        a_plus = NFA(["s", "f"], "s", ["a"], [("s", "a", "f"), ("f", "a", "f")], ["f"])
        a_star = NFA(["s"], "s", ["a"], [("s", "a", "s")], ["s"])
        assert _word(a_plus, a_star) == ()

    def test_different_alphabets_are_aligned(self):
        over_a = NFA(["s"], "s", ["a"], [("s", "a", "s")], ["s"])
        over_ab = NFA(["s"], "s", ["a", "b"], [("s", "a", "s")], ["s"])
        # as languages over the joint alphabet they are equal
        assert _word(over_a, over_ab) is None

    def test_inclusion(self):
        a_plus = NFA(["s", "f"], "s", ["a"], [("s", "a", "f"), ("f", "a", "f")], ["f"])
        a_star = NFA(["s"], "s", ["a"], [("s", "a", "s")], ["s"])
        assert _included(a_plus, a_star)
        assert not _included(a_star, a_plus)


class TestComplements:
    """A language against its complement and the empty language, without a DFA complement."""

    def test_complements_differ_on_the_empty_word(self):
        assert _word(_even_as(), _even_as("odd")) == ()
        assert _word(_even_as("odd"), _even_as()) == ()

    def test_union_of_complements_is_universal(self):
        assert _universal(_union(_even_as(), _even_as("odd")))
        assert not _universal(_union(_even_as(), _even_as()))

    def test_a_language_includes_itself_and_not_its_complement(self):
        assert _included(_even_as(), _even_as())
        assert not _included(_even_as(), _even_as("odd"))
        assert not _included(_even_as("odd"), _even_as())

    def test_shortest_words_outside_a_language_and_its_complement(self):
        assert not _universal(_even_as())
        assert universality_counterexample(_even_as().to_fsp()) == ("a",)
        assert not _universal(_even_as("odd"))
        assert universality_counterexample(_even_as("odd").to_fsp()) == ()

    def test_empty_language(self):
        empty = NFA(["p"], "p", ["a", "b"], [("p", "a", "p")], [])
        assert universality_counterexample(empty.to_fsp()) == ()
        assert _word(empty, NFA(["q"], "q", ["a", "b"], [], [])) is None
        assert _included(empty, _even_as())
        assert not _included(_even_as(), empty)


class TestUniversality:
    def test_universal_nfa(self):
        universal = NFA(["u"], "u", ["a", "b"], [("u", "a", "u"), ("u", "b", "u")], ["u"])
        assert _universal(universal)

    def test_non_universal_nfa(self):
        missing_b = NFA(["u"], "u", ["a", "b"], [("u", "a", "u")], ["u"])
        assert not _universal(missing_b)
        assert universality_counterexample(missing_b.to_fsp()) == ("b",)

    def test_universality_of_union_covering_all_words(self):
        # accepts words containing an a, plus words of only b's -> universal
        nfa = NFA(
            states=["s", "hasa"],
            start="s",
            alphabet=["a", "b"],
            transitions=[
                ("s", "b", "s"),
                ("s", "a", "hasa"),
                ("hasa", "a", "hasa"),
                ("hasa", "b", "hasa"),
            ],
            accepting=["s", "hasa"],
        )
        assert _universal(nfa)

    def test_determinized_view_agrees_with_direct_checks(self):
        nfa = NFA(["s", "f"], "s", ["a"], [("s", "a", "f"), ("f", "a", "f")], ["f"])
        dfa = determinize(nfa)
        for word in ([], ["a"], ["a", "a"]):
            assert dfa.accepts(word) == nfa.accepts(word)
