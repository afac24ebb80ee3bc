"""Property-based tests for Proposition 2.2.1 and the algorithmic cross-checks (E13).

The properties exercised here are the load-bearing correctness claims of the
library:

* the saturation route of Theorem 4.1(a) computes the same partition as the
  direct fixed-point iteration of Definition 2.2.2;
* the partition returned by the strong-equivalence checker really is a strong
  bisimulation (a Sigma-fixed-point), and the observational partition really
  is a weak bisimulation (a (Sigma u {eps})-fixed-point);
* the three generalized-partitioning solvers agree.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.equivalence.kobs import limited_observational_partition
from repro.equivalence.observational import observational_partition
from repro.equivalence.relations import (
    is_strong_bisimulation,
    is_weak_bisimulation,
    relation_from_partition,
)
from repro.equivalence.strong import strong_bisimulation_partition
from repro.partition.generalized import (
    GeneralizedPartitioningInstance,
    Solver,
    is_valid_solution,
    solve,
)
from tests.property.strategies import fsp_strategy

SETTINGS = settings(max_examples=40, deadline=None)


@given(fsp_strategy())
@SETTINGS
def test_saturation_route_equals_fixed_point_reference(process):
    assert observational_partition(process) == limited_observational_partition(process)


@given(fsp_strategy())
@SETTINGS
def test_strong_partition_induces_a_strong_bisimulation(process):
    partition = strong_bisimulation_partition(process)
    assert is_strong_bisimulation(process, relation_from_partition(partition))


@given(fsp_strategy())
@SETTINGS
def test_observational_partition_induces_a_weak_bisimulation(process):
    partition = observational_partition(process)
    assert is_weak_bisimulation(process, relation_from_partition(partition))


@given(fsp_strategy())
@SETTINGS
def test_observational_partition_is_coarser_than_strong(process):
    strong = strong_bisimulation_partition(process)
    weak = observational_partition(process)
    assert strong.refines(weak)


@given(fsp_strategy(max_states=6, max_transitions=12))
@SETTINGS
def test_partition_solvers_agree(process):
    instance = GeneralizedPartitioningInstance.from_fsp(process, include_tau=True)
    naive = solve(instance, Solver.NAIVE)
    ks = solve(instance, Solver.KANELLAKIS_SMOLKA)
    pt = solve(instance, Solver.PAIGE_TARJAN)
    assert naive == ks == pt
    assert is_valid_solution(instance, pt, reference=naive)


@given(fsp_strategy())
@SETTINGS
def test_partition_refines_extension_grouping(process):
    """Condition (1) of every equivalence: related states have equal extensions."""
    for partition in (strong_bisimulation_partition(process), observational_partition(process)):
        for block in partition:
            extensions = {process.extension(state) for state in block}
            assert len(extensions) == 1
