"""Tests for the language view of FSP states (approx_1 / Proposition 2.2.3(b))."""

from __future__ import annotations

import pytest

from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import TAU, from_transitions
from repro.core.weak import WeakKernel
from repro.equivalence.language import (
    MacroMoves,
    accepted_strings_upto,
    is_universal,
    language_distinguishing_word,
    language_equivalent,
    language_equivalent_processes,
    language_included,
    language_nfa,
    subset_search,
    traces_upto,
    universality_counterexample,
)


class TestLanguageExtraction:
    def test_accepted_strings(self, branching_process):
        strings = accepted_strings_upto(branching_process, 3)
        assert strings == frozenset({("a", "b"), ("a", "c")})

    def test_tau_is_invisible_in_language(self, tau_process):
        strings = accepted_strings_upto(tau_process, 2)
        assert ("a",) in strings
        assert all(TAU not in string for string in strings)

    def test_traces_include_non_accepting_prefixes(self, branching_process):
        traces = traces_upto(branching_process, 2)
        assert () in traces
        assert ("a",) in traces

    def test_language_nfa_custom_root_and_accepting(self, branching_process):
        nfa = language_nfa(branching_process, start="l", accepting={"t"})
        assert nfa.accepts(["b"])
        assert not nfa.accepts(["a"])


class TestEquivalenceAndInclusion:
    def test_language_equivalent_states(self):
        process = from_transitions(
            [("p", "a", "x"), ("q", "a", "y")], start="p", all_accepting=True
        )
        assert language_equivalent(process, "p", "q")
        assert language_equivalent(process, "x", "y")
        assert not language_equivalent(process, "p", "x")

    def test_distinguishing_word(self):
        process = from_transitions(
            [("p", "a", "x"), ("x", "a", "z"), ("q", "a", "y")],
            start="p",
            all_accepting=True,
        )
        word = language_distinguishing_word(process, "p", "q")
        assert word == ("a", "a")
        assert language_distinguishing_word(process, "x", "y") == ("a",)
        assert language_distinguishing_word(process, "z", "y") is None

    def test_inclusion(self):
        process = from_transitions(
            [("p", "a", "x"), ("p", "b", "y"), ("q", "a", "z")],
            start="p",
            all_accepting=True,
        )
        assert language_included(process, "q", "p")
        assert not language_included(process, "p", "q")

    def test_processes_comparison(self):
        first = from_transitions([("p", "a", "x")], start="p", all_accepting=True)
        second = from_transitions([("q", "a", "y"), ("q", "a", "z")], start="q", all_accepting=True)
        assert language_equivalent_processes(first, second)


class TestUniversality:
    def test_universal_process(self):
        process = from_transitions(
            [("u", "a", "u"), ("u", "b", "u")], start="u", all_accepting=True
        )
        assert is_universal(process)
        assert universality_counterexample(process) is None

    def test_non_universal_process(self):
        process = from_transitions(
            [("u", "a", "u")], start="u", all_accepting=True, alphabet={"a", "b"}
        )
        assert not is_universal(process)
        counterexample = universality_counterexample(process)
        assert counterexample is not None and counterexample == ("b",)

    def test_universality_with_tau_shortcuts(self):
        process = from_transitions(
            [("u", TAU, "v"), ("v", "a", "v"), ("v", "b", "v")],
            start="u",
            all_accepting=True,
        )
        assert is_universal(process)

    def test_standard_process_universality_depends_on_accepting(self):
        process = from_transitions(
            [("u", "a", "v"), ("v", "a", "u"), ("u", "b", "u"), ("v", "b", "v")],
            start="u",
            accepting=["u"],
        )
        # the odd-length a-words are rejected
        assert not is_universal(process)


def _cycles() -> tuple[MacroMoves, int, int]:
    """One table over an all-accepting a-cycle of length 2 and one of length 3, and their starts."""
    arcs = [("p0", "a", "p1"), ("p1", "a", "p0")]
    arcs += [("q0", "a", "q1"), ("q1", "a", "q2"), ("q2", "a", "q0")]
    process = from_transitions(arcs, start="p0", all_accepting=True)
    kernel = WeakKernel.from_fsp(process)
    moves = MacroMoves.from_fsp(process, kernel)
    return moves, moves.start(kernel.state_index("p0")), moves.start(kernel.state_index("q0"))


@pytest.fixture
def expanded(monkeypatch) -> list[int]:
    """The macrostate of every ``MacroMoves.successors`` call, in order."""
    calls: list[int] = []
    successors = MacroMoves.successors

    def counted(self, macro):
        calls.append(macro)
        return successors(self, macro)

    monkeypatch.setattr(MacroMoves, "successors", counted)
    return calls


class TestSubsetSearch:
    """The union-find of :func:`subset_search`; an expanded pair calls ``successors`` twice."""

    def test_a_macrostate_against_itself_expands_one_pair(self, expanded):
        arcs = [("p", "a", "q"), ("q", "a", "p")]
        moves = MacroMoves.from_fsp(from_transitions(arcs, start="p", all_accepting=True))
        assert subset_search(moves, moves, (0, 0)) is None
        assert expanded == [0, 0]

    def test_merged_pairs_are_skipped_by_transitivity(self, expanded):
        moves, p0, q0 = _cycles()
        assert subset_search(moves, moves, (p0, q0)) is None
        # The product of the cycles has six pairs.  (p0, q1) is never expanded:
        # the four pairs before it, (p0, q0), (p1, q1), (p0, q2) and (p1, q0),
        # already join p0 to q1.
        assert len(expanded) == 2 * 4

    def test_two_tables_keep_their_own_nodes(self):
        left = MacroMoves.from_fsp(from_transitions([("p", "a", "x")], start="p", accepting=["x"]))
        right = MacroMoves.from_fsp(from_transitions([("q", "a", "y")], start="q"))
        # Both tables number their macrostates 0, 1: shared nodes would merge
        # {x} with {y} along with the starts and miss the word.
        word, (_, left_accepts), (_, right_accepts) = subset_search(left, right, (0, 0))
        assert word == ("a",)
        assert left_accepts and not right_accepts

    def test_bound_counts_the_macrostates_of_each_side(self):
        moves, p0, q0 = _cycles()
        assert subset_search(moves, moves, (p0, q0), max_states=3) is None
        with pytest.raises(StateSpaceLimitError):
            subset_search(moves, moves, (p0, q0), max_states=2)
