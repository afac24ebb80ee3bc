"""Cross-solver property tests on the integer LTS kernel.

The coarsest stable refinement is unique, so all four entry points -- the
naive method, the Kanellakis-Smolka splitter queue, the Paige-Tarjan
three-way splitter and the :func:`~repro.partition.generalized.solve`
dispatcher -- must produce identical partitions on every instance.  The
tests sweep the random generators of :mod:`repro.generators.random_fsp`
(general, observable, deterministic, and tau-heavy shapes) and also check
the raw ``*_refine_lts`` interfaces directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.lts import LTS
from repro.generators.random_fsp import (
    random_deterministic_fsp,
    random_equivalent_copy,
    random_fsp,
    random_observable_fsp,
)
from repro.partition.generalized import (
    GeneralizedPartitioningInstance,
    Solver,
    is_valid_solution,
    solve,
)
from repro.partition.kanellakis_smolka import kanellakis_smolka_refine_lts
from repro.partition.naive import naive_refine_lts
from repro.partition.paige_tarjan import paige_tarjan_refine_lts
from repro.partition.refinable import partition_of_blocks

from tests.property.strategies import fsp_strategy


def _assert_all_solvers_agree(instance: GeneralizedPartitioningInstance) -> None:
    reference = solve(instance, Solver.NAIVE)
    assert is_valid_solution(instance, reference)
    for method in (Solver.KANELLAKIS_SMOLKA, Solver.PAIGE_TARJAN):
        assert solve(instance, method) == reference, method
    # the raw integer interfaces agree as well
    lts, block_of, num_blocks = instance.kernel
    for refine in (naive_refine_lts, kanellakis_smolka_refine_lts, paige_tarjan_refine_lts):
        part = refine(lts, list(block_of), num_blocks)
        assert partition_of_blocks(part.blk, lts.state_names) == reference, refine


@pytest.mark.parametrize("seed", range(12))
def test_solvers_agree_on_random_general_fsps(seed):
    process = random_fsp(12, tau_probability=0.25, seed=seed)
    _assert_all_solvers_agree(GeneralizedPartitioningInstance.from_fsp(process, include_tau=True))


@pytest.mark.parametrize("seed", range(8))
def test_solvers_agree_on_random_observable_fsps(seed):
    process = random_observable_fsp(16, transition_density=2.5, seed=seed)
    _assert_all_solvers_agree(GeneralizedPartitioningInstance.from_fsp(process))


@pytest.mark.parametrize("seed", range(8))
def test_solvers_agree_on_deterministic_fsps(seed):
    """Deterministic instances exercise the sound smaller-half worklist rule."""
    process = random_deterministic_fsp(14, seed=seed)
    instance = GeneralizedPartitioningInstance.from_fsp(process)
    assert instance.kernel[0].is_deterministic()
    _assert_all_solvers_agree(instance)


@pytest.mark.parametrize("seed", range(4))
def test_solvers_agree_on_duplicated_state_classes(seed):
    """Duplicated states force large non-trivial equivalence classes."""
    base = random_observable_fsp(10, transition_density=2.0, seed=seed)
    process = random_equivalent_copy(base, duplicates=12, seed=seed)
    instance = GeneralizedPartitioningInstance.from_fsp(process)
    result = solve(instance, Solver.KANELLAKIS_SMOLKA)
    _assert_all_solvers_agree(instance)
    # every original state must share a block with at least one of its clones
    clones = [state for state in process.states if "#dup" in state]
    assert clones
    for clone in clones:
        original = clone.split("#dup")[0]
        assert result.same_block(original, clone)


@settings(max_examples=40, deadline=None)
@given(process=fsp_strategy())
def test_solvers_agree_on_hypothesis_fsps(process):
    _assert_all_solvers_agree(GeneralizedPartitioningInstance.from_fsp(process, include_tau=True))


@settings(max_examples=25, deadline=None)
@given(process=fsp_strategy(allow_tau=True))
def test_kernel_round_trip_preserves_partition(process):
    """Solving after an FSP->LTS->FSP round-trip gives the same classes."""
    back = GeneralizedPartitioningInstance.from_fsp(process, include_tau=True)
    round_tripped = GeneralizedPartitioningInstance.from_fsp(
        LTS.from_fsp(process).to_fsp(), include_tau=True
    )
    assert solve(back) == solve(round_tripped)
