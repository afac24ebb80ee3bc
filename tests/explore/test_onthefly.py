"""Tests for the on-the-fly equivalence checker and trace verification."""

from __future__ import annotations

import pytest

from repro.ccs.semantics import compile_to_fsp
from repro.ccs.stdlib import broken_vending_machine, vending_machine
from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import TAU, from_transitions
from repro.explore import (
    LazyInterleavingProduct,
    build_implicit,
    check_implicit,
    verify_trace,
)
from repro.explore.onthefly import _Explorer, _verify_trace
from repro.generators.families import (
    interleaved_cycles_pair,
    interleaved_cycles_product_size,
    token_ring_pair,
)
from repro.protocols.library import build_scenario


def cycle(n, action="a"):
    return from_transitions(
        [(f"s{i}", action, f"s{(i + 1) % n}") for i in range(n)],
        start="s0",
        all_accepting=True,
    )


class TestVerdicts:
    def test_equivalent_cyclic_pair_needs_the_dfs(self):
        # a 1-cycle vs a 2-cycle: bisimilar, but only coinduction proves it.
        result = check_implicit(cycle(1), cycle(2), "strong")
        assert result.equivalent and result.trace is None

    def test_missing_action_is_found_with_a_verified_trace(self):
        left = cycle(3)
        right = from_transitions(
            [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s0"), ("s2", "b", "s0")],
            start="s0",
            all_accepting=True,
        )
        result = check_implicit(left, right, "strong")
        assert not result.equivalent
        assert result.trace == ("a", "a", "b")
        assert result.trace_verified and result.trace_in_left is False

    def test_branching_difference_is_found_but_not_trace_verified(self):
        # a.(b+c) vs a.b + a.c: bisimulation-inequivalent, trace-equivalent.
        merged = from_transitions(
            [("p", "a", "q"), ("q", "b", "r"), ("q", "c", "r")],
            start="p",
            all_accepting=True,
        )
        split = from_transitions(
            [("p", "a", "q1"), ("p", "a", "q2"), ("q1", "b", "r"), ("q2", "c", "r")],
            start="p",
            all_accepting=True,
        )
        result = check_implicit(merged, split, "strong")
        assert not result.equivalent
        assert result.trace is not None and not result.trace_verified

    def test_extension_mismatch_at_the_roots(self):
        accepting = from_transitions([], start="p", accepting=["p"])
        rejecting = from_transitions([], start="p", accepting=[])
        result = check_implicit(accepting, rejecting, "strong")
        assert not result.equivalent
        assert result.trace == () and result.trace_verified

    def test_weak_notion_absorbs_tau(self):
        quick = from_transitions([("p", "a", "q")], start="p", all_accepting=True)
        lazy = from_transitions(
            [("p", TAU, "m"), ("m", "a", "q")], start="p", all_accepting=True
        )
        assert not check_implicit(quick, lazy, "strong").equivalent
        assert check_implicit(quick, lazy, "observational").equivalent

    def test_vending_machines_differ_observationally(self):
        good = compile_to_fsp(*vending_machine())
        broken = compile_to_fsp(*broken_vending_machine())
        good = good.with_alphabet(good.alphabet | broken.alphabet)
        broken = broken.with_alphabet(good.alphabet)
        result = check_implicit(good, broken, "observational")
        assert not result.equivalent

    def test_unknown_notion_rejected(self):
        with pytest.raises(ValueError, match="on-the-fly"):
            check_implicit(cycle(2), cycle(2), "failure")

    def test_max_pairs_budget_raises(self):
        left = LazyInterleavingProduct(cycle(9, "a"), cycle(9, "b"))
        right = LazyInterleavingProduct(cycle(9, "a"), cycle(9, "b"))
        with pytest.raises(StateSpaceLimitError, match="exceeded 5 pairs"):
            check_implicit(left, right, "strong", max_pairs=5)


class TestEarlyExit:
    def test_composed_fault_found_in_a_vanishing_fraction(self):
        ok, bad = interleaved_cycles_pair([6, 6, 6, 6])
        product = interleaved_cycles_product_size([6, 6, 6, 6])
        result = check_implicit(build_implicit(ok), build_implicit(bad), "strong")
        assert not result.equivalent and result.trace_verified
        assert result.trace[-1] == "snag"
        assert result.pairs_visited <= 0.01 * product

    def test_token_ring_fault_is_weakly_visible(self):
        ok, bad = token_ring_pair(4)
        result = check_implicit(build_implicit(ok), build_implicit(bad), "observational")
        assert not result.equivalent and result.trace_verified

    def test_identical_composed_systems_are_equivalent(self):
        ok, _bad = interleaved_cycles_pair([3, 3])
        result = check_implicit(build_implicit(ok), build_implicit(ok), "strong")
        assert result.equivalent


class TestVerifyTrace:
    def test_replay_confirms_a_real_trace(self):
        left = cycle(2)
        right = from_transitions([("s0", "a", "s1")], start="s0", all_accepting=True)
        verified, in_left = verify_trace(left, right, ("a", "a"), "strong")
        assert verified and in_left is True

    def test_replay_rejects_a_shared_trace(self):
        verified, in_left = verify_trace(cycle(2), cycle(3), ("a",), "strong")
        assert not verified and in_left is None

    def test_weak_replay_skips_tau(self):
        lazy = from_transitions(
            [("p", TAU, "m"), ("m", "a", "q")], start="p", all_accepting=True
        )
        dead = from_transitions([], start="p", all_accepting=True, alphabet={"a"})
        verified, in_left = verify_trace(lazy, dead, (TAU, "a"), "observational")
        assert verified and in_left is True

    def test_unknown_notion_rejected(self):
        with pytest.raises(ValueError, match="verification"):
            verify_trace(cycle(1), cycle(1), ("a",), "language")

    def test_weak_replay_steps_each_macrostate_with_one_closure_search(self, monkeypatch):
        # The mutant's start closure holds 669 states.  One closure search
        # per step asks for each explored state's successors about once per
        # step; a closure per member would be quadratic in the closure size.
        scenario = build_scenario("quorum_voting", n=5)
        left = _Explorer(build_implicit(scenario.spec))
        right = _Explorer(build_implicit(scenario.mutant))
        calls = [0]
        successors = _Explorer.successors

        def counted(explorer, state):
            calls[0] += 1
            return successors(explorer, state)

        monkeypatch.setattr(_Explorer, "successors", counted)
        verified, _in_left = _verify_trace(left, right, ("decide", "decide"), weak=True)
        assert verified
        explored = left.states_explored + right.states_explored
        assert calls[0] <= 3 * explored, f"{calls[0]} successor calls for {explored} states"
