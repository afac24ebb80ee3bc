"""Property tests for the vectorized partition kernel against the python oracles.

The coarsest stable refinement is unique, so the numpy kernel
(:mod:`repro.partition.vectorized`) must produce exactly the partition the
pure-Python solvers compute -- up to block renumbering -- on every instance:
random FSPs, the structured scaling families, and hypothesis-generated
processes, for the strong notion and (refining the one saturation) the
observational one.  The memory-mapped CSR store must behave byte-for-byte
like the in-memory arrays.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

np = pytest.importorskip("numpy")

from repro.equivalence.observational import observational_partition  # noqa: E402
from repro.equivalence.strong import strong_bisimulation_partition  # noqa: E402
from repro.generators.families import (  # noqa: E402
    comb,
    duplicated_chain,
    shift_register,
    shift_register_csr,
    tau_diamond_tower,
    tau_ladder,
    tau_mesh,
)
from repro.generators.random_fsp import random_fsp, random_observable_fsp  # noqa: E402
from repro.partition.generalized import (  # noqa: E402
    GeneralizedPartitioningError,
    GeneralizedPartitioningInstance,
    Solver,
    solve,
)
from repro.partition.vectorized import vector_refine_csr, vector_refine_lts  # noqa: E402
from repro.utils.matrices import CSRArrays, MmapCSR  # noqa: E402

from tests.property.strategies import fsp_strategy  # noqa: E402

STRUCTURED = [
    ("shift_register", lambda: shift_register(7), False),
    ("comb", lambda: comb(40), False),
    ("duplicated_chain", lambda: duplicated_chain(30, 3), False),
    ("tau_ladder", lambda: tau_ladder(25), True),
]


def _assert_vector_matches_oracle(instance: GeneralizedPartitioningInstance) -> None:
    oracle = solve(instance, Solver.PAIGE_TARJAN)
    assert solve(instance, backend="vector").as_frozen() == oracle.as_frozen()


@pytest.mark.parametrize("seed", range(10))
def test_vector_matches_oracle_on_random_fsps(seed):
    process = random_fsp(14, tau_probability=0.25, seed=seed)
    _assert_vector_matches_oracle(
        GeneralizedPartitioningInstance.from_fsp(process, include_tau=True)
    )


@pytest.mark.parametrize("seed", range(6))
def test_vector_matches_oracle_on_observable_fsps(seed):
    process = random_observable_fsp(18, transition_density=2.5, seed=seed)
    _assert_vector_matches_oracle(GeneralizedPartitioningInstance.from_fsp(process))


@pytest.mark.parametrize("name,builder,include_tau", STRUCTURED, ids=[s[0] for s in STRUCTURED])
def test_vector_matches_oracle_on_structured_families(name, builder, include_tau):
    process = builder()
    _assert_vector_matches_oracle(
        GeneralizedPartitioningInstance.from_fsp(process, include_tau=include_tau)
    )


@settings(max_examples=30, deadline=None)
@given(process=fsp_strategy(allow_tau=True))
def test_vector_matches_oracle_on_hypothesis_fsps(process):
    _assert_vector_matches_oracle(
        GeneralizedPartitioningInstance.from_fsp(process, include_tau=True)
    )


@pytest.mark.parametrize("seed", range(4))
def test_vector_refine_lts_matches_raw_interface(seed):
    """The raw ``*_refine_lts`` twin agrees with the python solvers' assignment."""
    process = random_observable_fsp(16, transition_density=2.0, seed=seed)
    instance = GeneralizedPartitioningInstance.from_fsp(process)
    lts, block_of, num_blocks = instance.kernel
    assignment = vector_refine_lts(lts, block_of, num_blocks)
    oracle = solve(instance, Solver.KANELLAKIS_SMOLKA)
    names = lts.state_names
    by_block: dict[int, set[str]] = {}
    for state, block in enumerate(assignment.tolist()):
        by_block.setdefault(block, set()).add(names[state])
    assert frozenset(frozenset(b) for b in by_block.values()) == oracle.as_frozen()


def test_strong_equivalence_api_accepts_vector_backend():
    process = duplicated_chain(20, 2)
    python = strong_bisimulation_partition(process)
    vector = strong_bisimulation_partition(process, backend="vector")
    assert vector.as_frozen() == python.as_frozen()


@pytest.mark.parametrize(
    "builder",
    [lambda: tau_ladder(20), lambda: tau_mesh(60), lambda: tau_diamond_tower(12)],
    ids=["tau_ladder", "tau_mesh", "tau_diamond_tower"],
)
def test_observational_backends_agree(builder):
    process = builder()
    python = observational_partition(process)
    vector = observational_partition(process, backend="vector")
    assert vector.as_frozen() == python.as_frozen()


def test_unknown_backend_rejected():
    process = shift_register(4)
    instance = GeneralizedPartitioningInstance.from_fsp(process)
    with pytest.raises(GeneralizedPartitioningError):
        solve(instance, backend="fortran")


def test_mmap_csr_equals_in_memory(tmp_path):
    """The mmap store holds the same arrays and refines to the same partition."""
    bits = 9
    memory_csr, memory_blocks = shift_register_csr(bits)
    _, mmap_blocks = shift_register_csr(bits, mmap_dir=tmp_path)
    store = MmapCSR.open(tmp_path)
    assert isinstance(memory_csr, CSRArrays)
    assert store.n == memory_csr.n
    assert np.array_equal(np.asarray(store.offsets), np.asarray(memory_csr.offsets))
    assert np.array_equal(np.asarray(store.actions), np.asarray(memory_csr.actions))
    assert np.array_equal(np.asarray(store.targets), np.asarray(memory_csr.targets))
    assert np.array_equal(memory_blocks, mmap_blocks)
    refined_memory = vector_refine_csr(memory_csr, memory_blocks)
    refined_mmap = vector_refine_csr(store, mmap_blocks)
    assert np.array_equal(refined_memory, refined_mmap)
    # depth log2(n): the shift register is discrete after `bits` rounds
    assert int(refined_mmap.max()) + 1 == 1 << bits
