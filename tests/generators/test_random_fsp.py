"""Tests for the random process generators."""

from __future__ import annotations

import pytest

from repro.core.classify import ModelClass, classify
from repro.equivalence.observational import (
    observationally_equivalent,
    observationally_equivalent_processes,
)
from repro.equivalence.strong import strongly_equivalent
from repro.generators.random_fsp import (
    perturb,
    random_deterministic_fsp,
    random_equivalent_copy,
    random_finite_tree,
    random_fsp,
    random_observable_fsp,
    random_restricted_observable_fsp,
    random_rou_fsp,
)


class TestReproducibility:
    def test_same_seed_same_process(self):
        assert random_fsp(10, seed=3) == random_fsp(10, seed=3)

    def test_different_seed_usually_differs(self):
        assert random_fsp(10, seed=3) != random_fsp(10, seed=4)


class TestModelTargets:
    def test_general_generator_sizes(self):
        process = random_fsp(12, transition_density=2.0, seed=1)
        assert process.num_states == 12

    def test_generator_rejects_zero_states(self):
        with pytest.raises(ValueError):
            random_fsp(0)

    def test_connectivity(self):
        process = random_fsp(15, seed=5)
        assert process.reachable_states() == process.states

    @pytest.mark.parametrize("seed", range(3))
    def test_observable_generator(self, seed):
        process = random_observable_fsp(8, seed=seed)
        assert ModelClass.OBSERVABLE in classify(process)

    @pytest.mark.parametrize("seed", range(3))
    def test_restricted_observable_generator(self, seed):
        process = random_restricted_observable_fsp(8, seed=seed)
        assert ModelClass.RESTRICTED_OBSERVABLE in classify(process)

    @pytest.mark.parametrize("seed", range(3))
    def test_rou_generator(self, seed):
        process = random_rou_fsp(8, seed=seed)
        assert ModelClass.ROU in classify(process)

    @pytest.mark.parametrize("seed", range(3))
    def test_deterministic_generator(self, seed):
        process = random_deterministic_fsp(8, seed=seed)
        assert ModelClass.DETERMINISTIC in classify(process)

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_tree_generator(self, seed):
        process = random_finite_tree(8, seed=seed)
        assert ModelClass.FINITE_TREE in classify(process)


class TestDerivedPairs:
    def test_perturb_changes_exactly_one_transition(self):
        process = random_observable_fsp(8, seed=2)
        perturbed = perturb(process, seed=2)
        difference = process.transitions ^ perturbed.transitions
        assert len(difference) == 1

    def test_equivalent_copy_is_strongly_equivalent_and_larger(self):
        process = random_observable_fsp(6, seed=9, all_accepting=True)
        copy = random_equivalent_copy(process, duplicates=2, seed=9)
        assert copy.num_states == process.num_states + 2
        for state in process.states:
            assert strongly_equivalent(copy, state, state)
        # every duplicated state is equivalent to its original
        for state in copy.states - process.states:
            original = state.split("#dup")[0]
            assert strongly_equivalent(copy, state, original)

    def test_equivalent_copy_preserves_weak_behaviour(self):
        process = random_fsp(6, tau_probability=0.3, seed=4, all_accepting=True)
        copy = random_equivalent_copy(process, duplicates=1, seed=4)
        for state in process.states:
            assert observationally_equivalent(copy, state, state)
        assert observationally_equivalent_processes(process, copy)
