"""Tests for DFA minimisation (Hopcroft and Moore)."""

from __future__ import annotations

import operator

import pytest

from repro.automata.dfa import DFA, determinize
from repro.automata.minimize import hopcroft_minimize, moore_minimize
from repro.automata.nfa import NFA
from repro.equivalence.language import language_equivalent
from tests.automata.test_equivalence import as_nfa, side_by_side
from tests.equivalence.dfa_oracle import product_word


def _same_language(first: DFA, second: DFA) -> bool:
    """Language equality by the determinising oracle and by the free decider."""
    same = product_word(first, second, operator.ne) is None
    assert language_equivalent(*side_by_side(as_nfa(first), as_nfa(second))) == same
    return same


def _redundant_dfa() -> DFA:
    """A DFA for 'ends with a' with a duplicated accepting state."""
    return DFA(
        states=["n", "y1", "y2"],
        start="n",
        alphabet=["a", "b"],
        delta={
            ("n", "a"): "y1",
            ("n", "b"): "n",
            ("y1", "a"): "y2",
            ("y1", "b"): "n",
            ("y2", "a"): "y1",
            ("y2", "b"): "n",
        },
        accepting=["y1", "y2"],
    )


@pytest.mark.parametrize("minimize", [hopcroft_minimize, moore_minimize])
class TestMinimisation:
    def test_merges_equivalent_states(self, minimize):
        minimal = minimize(_redundant_dfa())
        assert len(minimal.states) == 2
        assert _same_language(minimal, _redundant_dfa())

    def test_idempotent(self, minimize):
        once = minimize(_redundant_dfa())
        twice = minimize(once)
        assert len(once.states) == len(twice.states)

    def test_drops_unreachable_states(self, minimize):
        dfa = DFA(
            states=["p", "island"],
            start="p",
            alphabet=["a"],
            delta={("p", "a"): "p", ("island", "a"): "island"},
            accepting=["p", "island"],
        )
        assert len(minimize(dfa).states) == 1

    def test_all_rejecting(self, minimize):
        dfa = DFA(
            states=["p", "q"],
            start="p",
            alphabet=["a"],
            delta={("p", "a"): "q", ("q", "a"): "p"},
            accepting=[],
        )
        assert len(minimize(dfa).states) == 1

    def test_preserves_language(self, minimize):
        nfa = NFA(
            states=["s", "m", "f"],
            start="s",
            alphabet=["a", "b"],
            transitions=[("s", "a", "s"), ("s", "b", "s"), ("s", "a", "m"), ("m", "a", "f")],
            accepting=["f"],
        )
        dfa = determinize(nfa)
        minimal = minimize(dfa)
        for length in range(5):
            for word in _words(["a", "b"], length):
                assert dfa.accepts(word) == minimal.accepts(word)


def _words(alphabet, length):
    if length == 0:
        yield []
        return
    for word in _words(alphabet, length - 1):
        for symbol in alphabet:
            yield word + [symbol]


def test_hopcroft_and_moore_agree_on_size():
    redundant = _redundant_dfa()
    assert len(hopcroft_minimize(redundant).states) == len(moore_minimize(redundant).states)


def test_minimal_dfa_is_canonical_up_to_equivalence():
    """Two different DFAs for the same language minimise to the same number of states."""
    first = determinize(NFA(["s", "f"], "s", ["a"], [("s", "a", "f"), ("f", "a", "f")], ["f"]))
    second = determinize(
        NFA(
            ["s", "x", "f"],
            "s",
            ["a"],
            [("s", "a", "x"), ("s", "a", "f"), ("x", "a", "f"), ("f", "a", "f")],
            ["x", "f"],
        )
    )
    assert _same_language(first, second)
    assert len(hopcroft_minimize(first).states) == len(hopcroft_minimize(second).states)
