"""Tests for the approximation chains approx_k and simeq_k (Definitions 2.2.1/2.2.2)."""

from __future__ import annotations

import pytest

from repro.core.fsp import TAU, from_transitions
from repro.core.paper_figures import fig2_language_pair
from repro.engine import Engine
from repro.equivalence import kobs
from repro.equivalence.kobs import (
    k_limited_equivalent,
    k_limited_partition,
    k_observational_equivalent,
    k_observational_equivalent_processes,
    k_observational_partition,
    limited_observational_partition,
    separation_level,
)
from repro.equivalence.language import language_equivalent_processes
from repro.equivalence.observational import (
    observational_partition,
    observationally_equivalent_processes,
)
from repro.generators.families import restricted_counter
from repro.generators.random_fsp import random_equivalent_copy, random_fsp


def _random_pair():
    first = random_fsp(10, tau_probability=0.3, transition_density=1.8, seed=3)
    return first, random_equivalent_copy(first, duplicates=3, seed=3)


class TestLevelZero:
    def test_level_zero_groups_by_extension(self, branching_process):
        for partition_fn in (k_limited_partition, k_observational_partition):
            partition = partition_fn(branching_process, 0)
            assert partition.same_block("s", "l")
            assert not partition.same_block("s", "t")

    def test_negative_k_rejected(self, branching_process):
        with pytest.raises(ValueError):
            k_limited_partition(branching_process, -1)
        with pytest.raises(ValueError):
            k_observational_partition(branching_process, -1)


class TestChainsAreMonotone:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_each_level_refines_the_previous(self, k):
        process, other = fig2_language_pair()
        combined = process.disjoint_union(other)
        coarser = k_limited_partition(combined, k)
        finer = k_limited_partition(combined, k + 1)
        assert finer.refines(coarser)

    def test_approx_refines_simeq_levelwise(self):
        """approx_k is at least as fine as simeq_k (strings versus single actions)."""
        process, other = fig2_language_pair()
        combined = process.disjoint_union(other)
        for k in range(3):
            approx = k_observational_partition(combined, k)
            simeq = k_limited_partition(combined, k)
            assert approx.refines(simeq)


class TestKnownSeparations:
    def test_fig2_pair_is_approx1_but_not_approx2(self):
        first, second = fig2_language_pair()
        assert k_observational_equivalent_processes(first, second, 1)
        assert not k_observational_equivalent_processes(first, second, 2)

    def test_approx1_is_language_equivalence_on_restricted(self):
        first, second = fig2_language_pair()
        assert language_equivalent_processes(first, second) == k_observational_equivalent_processes(
            first, second, 1
        )
        longer = from_transitions(
            [("p", "a", "p1"), ("p1", "a", "p2"), ("p2", "a", "p3")],
            start="p",
            all_accepting=True,
        )
        shorter = from_transitions(
            [("q", "a", "q1"), ("q1", "a", "q2")], start="q", all_accepting=True
        )
        assert not language_equivalent_processes(longer, shorter)
        assert not k_observational_equivalent_processes(longer, shorter, 1)
        counter = restricted_counter(6)
        renamed = counter.rename_states(prefix="o")
        assert k_observational_equivalent_processes(counter, renamed, 1)
        assert observationally_equivalent_processes(counter, renamed)

    def test_simeq1_versus_approx1(self):
        """simeq_1 only looks one action deep, so it cannot see a length difference at depth 2."""
        longer = from_transitions(
            [("p", "a", "p1"), ("p1", "a", "p2"), ("p2", "a", "p3")],
            start="p",
            all_accepting=True,
        )
        shorter = from_transitions(
            [("q", "a", "q1"), ("q1", "a", "q2")], start="q", all_accepting=True
        )
        combined = longer.disjoint_union(shorter)
        assert k_limited_equivalent(combined, "L:p", "R:q", 1)
        assert not k_observational_equivalent(combined, "L:p", "R:q", 1)


class TestLimits:
    def test_limited_partition_fixed_point_equals_observational(self, tau_process):
        assert limited_observational_partition(tau_process) == observational_partition(tau_process)

    def test_chain_stabilises_within_state_count(self):
        process = from_transitions(
            [("p", "a", "p1"), ("p1", "a", "p2"), ("q", "a", "q1")],
            start="p",
            all_accepting=True,
        )
        n = len(process.states)
        assert k_limited_partition(process, n) == k_limited_partition(process, n + 3)

    @pytest.mark.parametrize("pair", [_random_pair, fig2_language_pair])
    def test_approx_chain_stops_at_its_fixed_point(self, pair, monkeypatch):
        # approx_{k+1} is a function of approx_k alone (Theorem 4.1(b)), so a
        # large k must not cost a round per level.
        refine = kobs._refine_by_block_languages
        sizes: list[int] = []

        def counting(arcs, *args):
            sizes.append(arcs.n)
            return refine(arcs, *args)

        monkeypatch.setattr(kobs, "_refine_by_block_languages", counting)
        first, second = pair()
        deep = Engine().check(first, second, "k-observational", align=True, k=50)
        n = sizes[0]  # the states of the refined quotient union
        assert len(sizes) <= n
        exact = Engine().check(first, second, "k-observational", align=True, k=n)
        assert deep.equivalent == exact.equivalent


class TestSeparationLevel:
    def test_separation_level_none_for_equivalent_states(self, tau_process):
        assert separation_level(tau_process, "s", "m") is None

    def test_separation_level_zero_for_extension_difference(self, branching_process):
        assert separation_level(branching_process, "s", "t") == 0

    def test_separation_level_of_fig2_pair_is_two(self):
        first, second = fig2_language_pair()
        combined = first.disjoint_union(second)
        assert separation_level(combined, "L:" + first.start, "R:" + second.start) == 2

    def test_separation_level_depth_difference(self):
        process = from_transitions(
            [("p", "a", "p1"), ("p1", "a", "p2"), ("q", "a", "q1")],
            start="p",
            all_accepting=True,
        )
        # p can do "aa", q cannot: already an approx_1 (language) difference
        assert separation_level(process, "p", "q") == 1


class TestTauInteraction:
    def test_weak_derivatives_are_used(self):
        """tau.a.0 and a.0 agree at every level (they are observationally equivalent)."""
        direct = from_transitions([("p", "a", "p1")], start="p", all_accepting=True)
        delayed = from_transitions(
            [("q", TAU, "qm"), ("qm", "a", "q1")], start="q", all_accepting=True
        )
        for k in range(4):
            assert k_observational_equivalent_processes(direct, delayed, k)
