"""Tests for the parametric process families used by the benchmarks."""

from __future__ import annotations

import pytest

from repro.automata.dfa import determinize
from repro.core.classify import ModelClass, classify
from repro.equivalence.language import language_nfa
from repro.equivalence.minimize import minimize_strong
from repro.equivalence.strong import strongly_equivalent_processes
from repro.generators.expressions import (
    alternating_expression,
    left_deep_concat,
    random_star_expression,
    starred_unions,
)
from repro.generators.families import (
    binary_tree,
    chain,
    comb,
    cycle,
    duplicated_chain,
    kanellakis_inequivalent_pair,
    kanellakis_pair,
    nondeterministic_counter,
    restricted_counter,
    tau_diamond_tower,
    tau_ladder,
    tau_mesh,
)
from repro.expressions.syntax import length_of


class TestBasicFamilies:
    def test_chain_size(self):
        process = chain(5)
        assert process.num_states == 6
        assert process.num_transitions == 5

    def test_cycle_size_and_validation(self):
        assert cycle(4).num_states == 4
        with pytest.raises(ValueError):
            cycle(0)

    def test_binary_tree_is_a_finite_tree(self):
        tree = binary_tree(3)
        assert ModelClass.FINITE_TREE in classify(tree)
        assert tree.num_states == 2 ** 4 - 1

    def test_comb_structure(self):
        process = comb(4)
        assert ModelClass.RESTRICTED_OBSERVABLE in classify(process)
        assert process.num_states == 9  # 5 spine + 4 teeth

    def test_tau_ladder_has_tau(self):
        assert tau_ladder(3).has_tau()

    def test_duplicated_chain_minimises_to_plain_chain(self):
        bloated = duplicated_chain(4, 3)
        assert minimize_strong(bloated).num_states == 5

    def test_tau_mesh_shape_and_density(self):
        process = tau_mesh(16)
        assert process.num_states == 16  # 4x4 grid
        assert process.has_tau()
        # closure of the corner reaches the whole grid, so saturation is dense
        from repro.core.weak import WeakKernel

        assert WeakKernel.from_fsp(process).epsilon_closure("g0_0") == process.states

    def test_tau_mesh_rounds_the_side_up(self):
        assert tau_mesh(2000).num_states == 45 * 45
        assert tau_mesh(2).num_states == 4  # side is at least 2

    def test_tau_diamond_tower_structure(self):
        process = tau_diamond_tower(3)
        assert process.num_states == 3 * 3 + 1
        assert process.has_tau()
        with pytest.raises(ValueError):
            tau_diamond_tower(0)


class TestHardInstances:
    def test_nondeterministic_counter_blows_up_under_determinisation(self):
        process = nondeterministic_counter(6)
        dfa = determinize(language_nfa(process))
        assert len(dfa.states) >= 2 ** 6

    def test_restricted_counter_is_restricted(self):
        assert ModelClass.RESTRICTED in classify(restricted_counter(4))

    def test_counter_validation(self):
        with pytest.raises(ValueError):
            nondeterministic_counter(0)

    def test_kanellakis_pair_is_equivalent(self):
        left, right = kanellakis_pair(4)
        assert strongly_equivalent_processes(left, right)

    def test_kanellakis_inequivalent_pair_is_inequivalent(self):
        left, right = kanellakis_inequivalent_pair(4)
        assert not strongly_equivalent_processes(left, right)


class TestExpressionFamilies:
    def test_random_expression_reproducible(self):
        assert str(random_star_expression(8, seed=1)) == str(random_star_expression(8, seed=1))

    def test_alternating_expression_grows_linearly(self):
        small = length_of(alternating_expression(2))
        large = length_of(alternating_expression(4))
        assert large > small

    def test_left_deep_concat_length(self):
        assert length_of(left_deep_concat(5)) == 9  # 5 actions + 4 concat operators

    def test_starred_unions_width(self):
        expression = starred_unions(4)
        assert length_of(expression) == 8  # 4 actions + 3 unions + 1 star


class TestComposedScenarioFamilies:
    def test_interleaved_cycles_product_size_is_exact(self):
        from repro.explore import build_implicit, reachable_stats
        from repro.generators.families import (
            interleaved_cycles_product_size,
            interleaved_cycles_system,
        )

        lengths = [3, 4, 2]
        stats = reachable_stats(build_implicit(interleaved_cycles_system(lengths)))
        assert stats.states == interleaved_cycles_product_size(lengths) == 24

    def test_fault_adds_behaviour_but_no_states(self):
        from repro.explore import build_implicit, reachable_stats
        from repro.generators.families import interleaved_cycles_pair

        ok, bad = interleaved_cycles_pair([3, 3])
        ok_stats = reachable_stats(build_implicit(ok))
        bad_stats = reachable_stats(build_implicit(bad))
        assert ok_stats.states == bad_stats.states
        assert bad_stats.transitions > ok_stats.transitions

    def test_dining_philosophers_can_eat_and_can_deadlock(self):
        from repro.explore import build_implicit, materialize
        from repro.generators.families import dining_philosophers_system

        table = materialize(build_implicit(dining_philosophers_system(3)))
        actions = {action for _s, action, _d in table.transitions}
        assert {"eat0", "eat1", "eat2"} <= actions
        # the all-hold-left deadlock is reachable: some state has no moves
        sources = {src for src, _a, _d in table.transitions}
        assert table.states - sources, "expected a reachable deadlock state"

    def test_token_ring_serves_round_robin(self):
        from repro.explore import build_implicit, materialize
        from repro.generators.families import token_ring_system

        ring = materialize(build_implicit(token_ring_system(3)))
        from repro.equivalence.language import accepted_strings_upto

        words = accepted_strings_upto(ring, 3)
        assert ("serve0",) in words
        assert ("serve0", "serve1") in words
        assert ("serve1",) not in words  # station 0 holds the token first

    def test_milner_scheduler_overlaps_tasks(self):
        from repro.explore import build_implicit, materialize
        from repro.generators.families import milner_scheduler_system

        scheduler = materialize(build_implicit(milner_scheduler_system(3)))
        from repro.equivalence.language import accepted_strings_upto

        words = accepted_strings_upto(scheduler, 2)
        # the next task can start before the previous one finishes
        assert ("start0", "start1") in words
        # but starts stay in round-robin order
        assert ("start1",) not in words

    def test_redundant_interleaving_minimises_to_the_plain_grid(self):
        from repro.equivalence.minimize import minimize_observational
        from repro.explore import compose_eager
        from repro.generators.families import redundant_interleaving_system

        spec = redundant_interleaving_system(2, 3, 2)
        eager = compose_eager(spec)
        minimal = minimize_observational(eager)
        assert minimal.num_states < eager.num_states
        assert minimal.num_states == 4 * 4  # two chains of length 3 -> 4 states each
