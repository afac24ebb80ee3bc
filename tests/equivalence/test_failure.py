"""Tests for failure semantics and failure equivalence (Section 5)."""

from __future__ import annotations

import pytest

from repro.core.errors import ModelClassError, StateSpaceLimitError
from repro.core.fsp import TAU, from_transitions
from repro.core.paper_figures import fig2_failure_pair, fig2_language_pair
from repro.equivalence.failure import (
    failure_distinguishing_string,
    failure_equivalent,
    failure_equivalent_processes,
    failures_upto,
    maximal_refusals,
    refusal_sets,
    tree_failure_equivalent,
    tree_failure_signature,
)
from repro.generators.families import binary_tree, restricted_counter


class TestFailuresEnumeration:
    def test_requires_restricted_model(self, branching_process):
        with pytest.raises(ModelClassError):
            failures_upto(branching_process, "s", 2)

    def test_simple_chain_failures(self, simple_chain):
        failures = failures_upto(simple_chain, "c0", 3)
        # after the full chain everything is refused
        assert (("a", "a"), frozenset({"a"})) in failures
        # at the start nothing can be refused (an `a` is always available)
        assert ((), frozenset()) in failures
        assert ((), frozenset({"a"})) not in failures

    def test_refusal_sets_are_downward_closed(self):
        process = from_transitions(
            [("p", "a", "q")], start="p", all_accepting=True, alphabet={"a", "b", "c"}
        )
        refusals = refusal_sets(process, "p")
        assert frozenset({"b", "c"}) in refusals
        assert frozenset({"b"}) in refusals
        assert frozenset() in refusals
        assert frozenset({"a"}) not in refusals

    def test_maximal_refusals(self):
        process = from_transitions(
            [("p", "a", "q"), ("r", "b", "q")],
            start="p",
            all_accepting=True,
            alphabet={"a", "b"},
        )
        maxima = maximal_refusals(process, {"p", "r"})
        assert maxima == frozenset({frozenset({"b"}), frozenset({"a"})})
        # a derivative set containing a state that refuses nothing extra collapses
        maxima_single = maximal_refusals(process, {"q"})
        assert maxima_single == frozenset({frozenset({"a", "b"})})

    def test_tau_moves_do_not_appear_in_failures(self):
        process = from_transitions(
            [("p", TAU, "q"), ("q", "a", "r")], start="p", all_accepting=True
        )
        failures = failures_upto(process, "p", 2)
        assert ((), frozenset()) in failures
        assert all(TAU not in string for string, _z in failures)


class TestFailureEquivalence:
    def test_fig2_language_pair_is_not_failure_equivalent(self):
        first, second = fig2_language_pair()
        assert not failure_equivalent_processes(first, second)

    def test_fig2_failure_pair_is_failure_equivalent(self):
        first, second = fig2_failure_pair()
        assert failure_equivalent_processes(first, second)

    def test_distinguishing_string_for_language_pair(self):
        first, second = fig2_language_pair()
        combined = first.disjoint_union(second)
        witness = failure_distinguishing_string(combined, "L:p0", "R:q0")
        assert witness == ("a",)

    def test_distinguishing_string_none_when_equivalent(self):
        first, second = fig2_failure_pair()
        combined = first.disjoint_union(second)
        assert failure_distinguishing_string(combined, "L:p0", "R:q0") is None

    def test_language_difference_is_a_failure_difference(self):
        longer = from_transitions(
            [("p", "a", "p1"), ("p1", "a", "p2")], start="p", all_accepting=True
        )
        shorter = from_transitions([("q", "a", "q1")], start="q", all_accepting=True)
        assert not failure_equivalent_processes(longer, shorter)

    def test_reflexive_and_symmetric(self, simple_chain):
        assert failure_equivalent(simple_chain, "c0", "c0")
        other = from_transitions(
            [("d0", "a", "d1"), ("d1", "a", "d2")], start="d0", all_accepting=True
        )
        assert failure_equivalent_processes(simple_chain, other)
        assert failure_equivalent_processes(other, simple_chain)
        counter = restricted_counter(5)
        assert failure_equivalent_processes(counter, counter.rename_states(prefix="o"))

    def test_requires_restricted(self, branching_process):
        with pytest.raises(ModelClassError):
            failure_equivalent(branching_process, "s", "t")

    def test_macro_state_budget(self):
        process = restricted_counter(10)
        bigger = restricted_counter(10).rename_states(prefix="o")
        combined = process.disjoint_union(bigger)
        with pytest.raises(StateSpaceLimitError):
            failure_distinguishing_string(combined, "L:g", "R:og", max_macro_states=4)

    def test_tau_sensitivity(self):
        """Internal choice before refusing shows up in failures: a + b  vs  tau.a + tau.b."""
        external = from_transitions(
            [("p", "a", "p1"), ("p", "b", "p2")], start="p", all_accepting=True
        )
        internal = from_transitions(
            [("q", TAU, "qa"), ("q", TAU, "qb"), ("qa", "a", "q1"), ("qb", "b", "q2")],
            start="q",
            all_accepting=True,
        )
        assert not failure_equivalent_processes(external, internal)


class TestFiniteTreeFastPath:
    def test_tree_signature_requires_tree(self, simple_chain):
        looped = from_transitions([("p", "a", "p")], start="p", all_accepting=True)
        with pytest.raises(ModelClassError):
            tree_failure_signature(looped)

    def test_tree_equivalence_agrees_with_general_checker(self):
        first = from_transitions(
            [("r", "a", "x"), ("r", "a", "y"), ("x", "b", "z")],
            start="r",
            all_accepting=True,
            alphabet={"a", "b"},
        )
        second = from_transitions(
            [("s", "a", "u"), ("s", "a", "v"), ("u", "b", "w")],
            start="s",
            all_accepting=True,
            alphabet={"a", "b"},
        )
        third = from_transitions(
            [("t", "a", "m"), ("m", "b", "n")],
            start="t",
            all_accepting=True,
            alphabet={"a", "b"},
        )
        assert tree_failure_equivalent(first, second)
        assert failure_equivalent_processes(first, second)
        assert not tree_failure_equivalent(first, third)
        assert not failure_equivalent_processes(first, third)
        tree = binary_tree(5)
        renamed = tree.rename_states(prefix="o")
        assert tree_failure_equivalent(tree, renamed)
        assert failure_equivalent_processes(tree, renamed)

    def test_signature_content(self):
        tree = from_transitions(
            [("r", "a", "x")], start="r", all_accepting=True, alphabet={"a", "b"}
        )
        signature = tree_failure_signature(tree)
        assert ((), frozenset({"b"})) in signature
        assert (("a",), frozenset({"a", "b"})) in signature
