"""Cross-checks between the three generalized-partitioning solvers (experiments E5/E6)."""

from __future__ import annotations

import pytest

from repro.core.fsp import from_transitions
from repro.generators.families import comb, duplicated_chain
from repro.generators.random_fsp import random_fsp, random_observable_fsp
from repro.partition.generalized import (
    GeneralizedPartitioningInstance,
    Solver,
    is_valid_solution,
    solve,
)
from repro.partition.naive import naive_refine_lts, naive_refinement_passes
from repro.partition.refinable import partition_of_blocks


def _instances():
    yield GeneralizedPartitioningInstance.from_fsp(duplicated_chain(4, 2))
    yield GeneralizedPartitioningInstance.from_fsp(comb(5))
    yield GeneralizedPartitioningInstance.from_fsp(
        random_observable_fsp(20, transition_density=2.0, seed=7)
    )
    yield GeneralizedPartitioningInstance.from_fsp(
        random_fsp(15, tau_probability=0.3, seed=11), include_tau=True
    )
    # a nondeterministic instance where the smaller-half subtlety matters
    yield GeneralizedPartitioningInstance(
        elements=[f"e{i}" for i in range(6)],
        initial_blocks=[[f"e{i}" for i in range(6)]],
        functions={
            "f": {
                "e0": ["e1", "e2"],
                "e1": ["e3"],
                "e2": ["e4", "e5"],
                "e3": ["e0"],
                "e4": ["e1", "e5"],
            }
        },
    )
    # unbounded fanout: the Paige-Tarjan three-way split at work
    yield GeneralizedPartitioningInstance.from_fsp(
        random_observable_fsp(40, transition_density=12.0, seed=480)
    )


@pytest.mark.parametrize("index,instance", list(enumerate(_instances())))
def test_solvers_agree_and_are_valid(index, instance):
    naive = solve(instance, Solver.NAIVE)
    ks = solve(instance, Solver.KANELLAKIS_SMOLKA)
    pt = solve(instance, Solver.PAIGE_TARJAN)
    assert naive == ks, f"instance {index}: naive vs Kanellakis-Smolka differ"
    assert naive == pt, f"instance {index}: naive vs Paige-Tarjan differ"
    assert is_valid_solution(instance, naive)
    assert is_valid_solution(instance, pt, reference=naive)


def test_result_refines_initial_partition():
    instance = GeneralizedPartitioningInstance.from_fsp(comb(4))
    result = solve(instance)
    assert result.refines(instance.initial_partition())


def test_no_functions_leaves_initial_partition():
    instance = GeneralizedPartitioningInstance(
        elements=["a", "b", "c"],
        initial_blocks=[["a", "b"], ["c"]],
        functions={},
    )
    for method in Solver:
        result = solve(instance, method)
        assert result == instance.initial_partition()


def test_singleton_instance():
    instance = GeneralizedPartitioningInstance(
        elements=["only"], initial_blocks=[["only"]], functions={"f": {"only": ["only"]}}
    )
    for method in Solver:
        assert len(solve(instance, method)) == 1


def test_naive_pass_count_is_bounded_by_n():
    instance = GeneralizedPartitioningInstance.from_fsp(duplicated_chain(6, 2))
    passes = naive_refinement_passes(instance)
    n, _m = instance.size
    assert 1 <= passes <= n
    # refinement information travels one chain link per pass
    assert passes >= 6 // 2

    # and the naive method whose passes were counted reaches the coarsest partition
    lts, block_of, num_blocks = instance.kernel
    part = naive_refine_lts(lts, list(block_of), num_blocks)
    assert partition_of_blocks(part.blk, lts.state_names) == solve(instance, Solver.PAIGE_TARJAN)


def test_empty_element_set():
    instance = GeneralizedPartitioningInstance(elements=[], initial_blocks=[], functions={})
    for method in Solver:
        assert len(solve(instance, method)) == 0


def test_self_loop_versus_sink_distinction():
    """A state with a self-loop must not merge with a dead state."""
    process = from_transitions(
        [("loop", "a", "loop")], start="loop", all_accepting=True, alphabet={"a"}
    )
    process = from_transitions(
        [("loop", "a", "loop")],
        start="loop",
        all_accepting=True,
        alphabet={"a"},
    )
    # add an isolated dead state by rebuilding
    from repro.core.fsp import FSP

    process = FSP(
        states=set(process.states) | {"dead"},
        start=process.start,
        alphabet=process.alphabet,
        transitions=process.transitions,
        variables=process.variables,
        extensions=set(process.extensions) | {("dead", "x")},
    )
    instance = GeneralizedPartitioningInstance.from_fsp(process)
    for method in Solver:
        result = solve(instance, method)
        assert not result.same_block("loop", "dead")
