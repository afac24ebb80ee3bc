"""Tests for observational equivalence (Theorem 4.1(a))."""

from __future__ import annotations

import pytest

from repro.core.fsp import TAU, from_transitions
from repro.equivalence.kobs import limited_observational_partition
from repro.equivalence.observational import (
    observational_partition,
    observationally_equivalent,
    observationally_equivalent_processes,
)
from repro.generators.random_fsp import random_fsp
from repro.partition.generalized import Solver


class TestTauLaws:
    def test_tau_prefix_is_absorbed(self):
        """a.0  approx  tau.a.0 (Milner's first tau-law at the process level)."""
        direct = from_transitions([("p", "a", "p1")], start="p", all_accepting=True)
        delayed = from_transitions(
            [("q", TAU, "qm"), ("qm", "a", "q1")], start="q", all_accepting=True
        )
        assert observationally_equivalent_processes(direct, delayed)

    def test_tau_loop_is_invisible(self):
        quiet = from_transitions([("p", "a", "p1")], start="p", all_accepting=True)
        chattering = from_transitions(
            [("q", TAU, "q"), ("q", "a", "q1")], start="q", all_accepting=True
        )
        assert observationally_equivalent_processes(quiet, chattering)

    def test_tau_choice_is_observable_when_it_discards_options(self):
        """a.0 + b.0  is NOT approx  a.0 + tau.b.0 (the tau pre-empts the a)."""
        stable = from_transitions(
            [("p", "a", "p1"), ("p", "b", "p2")], start="p", all_accepting=True
        )
        preempting = from_transitions(
            [("q", "a", "q1"), ("q", TAU, "qm"), ("qm", "b", "q2")],
            start="q",
            all_accepting=True,
        )
        assert not observationally_equivalent_processes(stable, preempting)

    def test_extension_visibility_through_tau(self):
        """A tau-move into a state with different extensions is observable at level 0/1."""
        plain = from_transitions([("p", "a", "p1")], start="p", accepting=["p"])
        tau_to_accepting = from_transitions(
            [("q", "a", "q1"), ("q", TAU, "qa")], start="q", accepting=["q", "qa"]
        )
        # q's tau-derivative qa is accepting and dead; p has no matching epsilon-derivative
        assert not observationally_equivalent_processes(plain, tau_to_accepting)


class TestAgainstReferenceImplementation:
    @pytest.mark.parametrize("seed", range(8))
    def test_saturation_route_matches_fixed_point_reference(self, seed):
        process = random_fsp(num_states=8, tau_probability=0.3, transition_density=1.8, seed=seed)
        fast = observational_partition(process)
        reference = limited_observational_partition(process)
        assert fast == reference

    def test_methods_agree(self, tau_process):
        reference = observational_partition(tau_process, method=Solver.NAIVE)
        for method in (Solver.KANELLAKIS_SMOLKA, Solver.PAIGE_TARJAN):
            assert observational_partition(tau_process, method=method) == reference


class TestPairwise:
    def test_states_of_same_process(self, tau_process):
        # s can do a (directly or via tau); m can do a as well and both are non-accepting
        assert observationally_equivalent(tau_process, "s", "m")

    def test_observational_implies_not_necessarily_strong(self):
        process = from_transitions(
            [("p", "a", "p1"), ("q", TAU, "qm"), ("qm", "a", "q1")],
            start="p",
            all_accepting=True,
        )
        assert observationally_equivalent(process, "p", "q")

    def test_weak_language_difference_detected(self):
        first = from_transitions([("p", "a", "p1")], start="p", all_accepting=True)
        second = from_transitions(
            [("q", "a", "q1"), ("q1", "b", "q2")], start="q", all_accepting=True
        )
        assert not observationally_equivalent_processes(first.with_alphabet({"a", "b"}), second)


class TestClassicExamples:
    def test_coffee_machine_counterexample(self):
        """coin.(tea + coffee)  vs  coin.tea + coin.coffee -- the classic non-equivalence."""
        good = from_transitions(
            [("g", "coin", "g1"), ("g1", "tea", "g2"), ("g1", "coffee", "g3")],
            start="g",
            all_accepting=True,
        )
        committing = from_transitions(
            [("b", "coin", "b1"), ("b1", "tea", "b2"), ("b", "coin", "b3"), ("b3", "coffee", "b4")],
            start="b",
            all_accepting=True,
        )
        assert not observationally_equivalent_processes(good, committing)

    def test_internal_choice_collapses_when_options_equal(self):
        direct = from_transitions(
            [("p", "coin", "p1"), ("p1", "tea", "p2")], start="p", all_accepting=True
        )
        internal = from_transitions(
            [
                ("q", "coin", "q1"),
                ("q1", TAU, "q2"),
                ("q1", TAU, "q3"),
                ("q2", "tea", "q4"),
                ("q3", "tea", "q5"),
            ],
            start="q",
            all_accepting=True,
        )
        assert observationally_equivalent_processes(direct, internal)
