"""Tests for the DFA class and the subset construction."""

from __future__ import annotations

import pytest

from repro.automata.dfa import DEAD_STATE, DFA, determinize
from repro.automata.nfa import NFA
from repro.core.errors import InvalidProcessError, StateSpaceLimitError


def _even_as_dfa() -> DFA:
    """A DFA accepting words with an even number of `a`s (over {a, b})."""
    return DFA(
        states=["even", "odd"],
        start="even",
        alphabet=["a", "b"],
        delta={
            ("even", "a"): "odd",
            ("even", "b"): "even",
            ("odd", "a"): "even",
            ("odd", "b"): "odd",
        },
        accepting=["even"],
    )


class TestDfaBasics:
    def test_must_be_complete(self):
        with pytest.raises(InvalidProcessError):
            DFA(["p"], "p", ["a"], {}, [])

    def test_transition_targets_must_exist(self):
        with pytest.raises(InvalidProcessError):
            DFA(["p"], "p", ["a"], {("p", "a"): "zz"}, [])

    def test_accepts(self):
        dfa = _even_as_dfa()
        assert dfa.accepts([])
        assert dfa.accepts(["a", "a"])
        assert dfa.accepts(["b", "a", "b", "a"])
        assert not dfa.accepts(["a"])
        assert not dfa.accepts(["z"])

    def test_restrict_to_reachable(self):
        dfa = DFA(
            states=["p", "unreachable"],
            start="p",
            alphabet=["a"],
            delta={("p", "a"): "p", ("unreachable", "a"): "p"},
            accepting=["p"],
        )
        assert dfa.restrict_to_reachable().states == frozenset({"p"})

    def test_repr(self):
        assert "states=2" in repr(_even_as_dfa())


class TestDeterminize:
    def test_subset_construction_language(self):
        nfa = NFA(
            states=["s", "m", "f"],
            start="s",
            alphabet=["a", "b"],
            transitions=[("s", "a", "s"), ("s", "b", "s"), ("s", "a", "m"), ("m", "b", "f")],
            accepting=["f"],
        )
        dfa = determinize(nfa)
        for word in (["a", "b"], ["b", "a", "b"], ["a", "a", "b"]):
            assert dfa.accepts(word) == nfa.accepts(word)
        for word in ([], ["a"], ["b", "b"]):
            assert dfa.accepts(word) == nfa.accepts(word)

    def test_dead_state_added_for_missing_moves(self):
        nfa = NFA(["p", "q"], "p", ["a", "b"], [("p", "a", "q")], ["q"])
        dfa = determinize(nfa)
        assert DEAD_STATE in dfa.states
        assert not dfa.accepts(["b"])

    def test_epsilon_moves_are_resolved(self):
        nfa = NFA(["p", "q"], "p", ["a"], [("p", None, "q"), ("q", "a", "q")], ["q"])
        dfa = determinize(nfa)
        assert dfa.accepts([])
        assert dfa.accepts(["a", "a"])

    def test_max_states_guard(self):
        # the classical "k-th symbol from the end" NFA blows up exponentially
        states = ["g"] + [f"d{i}" for i in range(8)]
        transitions = [("g", "a", "g"), ("g", "b", "g"), ("g", "a", "d0")]
        transitions += [(f"d{i}", c, f"d{i+1}") for i in range(7) for c in "ab"]
        nfa = NFA(states, "g", ["a", "b"], transitions, ["d7"])
        with pytest.raises(StateSpaceLimitError):
            determinize(nfa, max_states=16)

    def test_empty_alphabet(self):
        nfa = NFA(["p"], "p", [], [], ["p"])
        dfa = determinize(nfa)
        assert dfa.accepts([])
