"""Tests for weak derivatives, tau-closure and the Theorem 4.1(a) saturation.

The weak queries are asked of :class:`repro.core.weak.WeakKernel`, the
library's one weak-transition API; the expected sets are worked out by hand
from the paper's definitions.
"""

from __future__ import annotations

import pytest

from repro.core.derivatives import saturate
from repro.core.errors import InvalidProcessError
from repro.core.fsp import EPSILON, TAU, from_transitions
from repro.core.weak import WeakKernel


@pytest.fixture
def tau_chain():
    """p0 =tau=> p1 =tau=> p2 --a--> p3, p3 --b--> p0."""
    return from_transitions(
        [
            ("p0", TAU, "p1"),
            ("p1", TAU, "p2"),
            ("p2", "a", "p3"),
            ("p3", "b", "p0"),
        ],
        start="p0",
        all_accepting=True,
    )


class TestTauClosure:
    def test_closure_is_reflexive(self, tau_chain):
        closure = WeakKernel.from_fsp(tau_chain).closure_dict()
        for state in tau_chain.states:
            assert state in closure[state]

    def test_closure_follows_chains(self, tau_chain):
        closure = WeakKernel.from_fsp(tau_chain).closure_dict()
        assert closure["p0"] == frozenset({"p0", "p1", "p2"})
        assert closure["p3"] == frozenset({"p3"})

    def test_closure_handles_cycles(self):
        cyclic = from_transitions([("a", TAU, "b"), ("b", TAU, "a")], start="a", all_accepting=True)
        closure = WeakKernel.from_fsp(cyclic).closure_dict()
        assert closure["a"] == frozenset({"a", "b"})
        assert closure["b"] == frozenset({"a", "b"})

    def test_closure_of_a_set(self, tau_chain):
        kernel = WeakKernel.from_fsp(tau_chain)
        closure = kernel.weak_successors_of_set({"p0", "p3"}, EPSILON)
        assert closure == frozenset({"p0", "p1", "p2", "p3"})


class TestWeakSuccessors:
    @pytest.fixture
    def kernel(self, tau_chain):
        return WeakKernel.from_fsp(tau_chain)

    def test_weak_successor_through_tau(self, kernel):
        assert kernel.weak_successors("p0", "a") == frozenset({"p3"})

    def test_weak_successor_direct(self, kernel):
        assert kernel.weak_successors("p3", "b") == frozenset({"p0", "p1", "p2"})

    def test_weak_successor_missing_action(self, kernel):
        assert kernel.weak_successors("p3", "a") == frozenset()

    def test_epsilon_returns_closure(self, kernel):
        assert kernel.weak_successors("p0", EPSILON) == frozenset({"p0", "p1", "p2"})

    def test_tau_is_rejected_as_query_action(self, kernel):
        with pytest.raises(InvalidProcessError):
            kernel.weak_successors("p0", TAU)

    def test_successors_of_set(self, kernel):
        assert kernel.weak_successors_of_set({"p0", "p3"}, "a") == frozenset({"p3"})

    def test_string_derivatives(self, kernel):
        assert kernel.string_derivatives("p0", ["a", "b"]) == frozenset({"p0", "p1", "p2"})
        assert kernel.string_derivatives("p0", []) == frozenset({"p0", "p1", "p2"})
        assert kernel.string_derivatives("p0", ["b"]) == frozenset()
        assert kernel.string_derivatives("p0", ["a"]) == frozenset({"p3"})
        assert kernel.string_derivatives("p0", ["a", "a"]) == frozenset()

    def test_weak_initials(self, kernel):
        assert kernel.weak_initials("p0") == frozenset({"a"})
        assert kernel.weak_initials("p3") == frozenset({"b"})


class TestSaturate:
    def test_saturated_has_epsilon_self_loops(self, tau_chain):
        saturated = saturate(tau_chain)
        for state in tau_chain.states:
            assert (state, EPSILON, state) in saturated.transitions

    def test_saturated_has_no_tau(self, tau_chain):
        saturated = saturate(tau_chain)
        assert not saturated.has_tau()

    def test_saturated_alphabet_includes_marker(self, tau_chain):
        saturated = saturate(tau_chain)
        assert EPSILON in saturated.alphabet
        assert saturated.alphabet - {EPSILON} == tau_chain.alphabet

    def test_saturated_weak_moves_become_strong(self, tau_chain):
        saturated = saturate(tau_chain)
        assert "p3" in saturated.successors("p0", "a")

    def test_marker_collision_rejected(self):
        process = from_transitions([("p", "ε", "q")], start="p", all_accepting=True)
        with pytest.raises(InvalidProcessError):
            saturate(process)

    def test_custom_marker(self, tau_chain):
        saturated = saturate(tau_chain, epsilon_action="eps")
        assert "eps" in saturated.alphabet

    def test_saturation_preserves_extensions(self, tau_chain):
        saturated = saturate(tau_chain)
        for state in tau_chain.states:
            assert saturated.extension(state) == tau_chain.extension(state)

