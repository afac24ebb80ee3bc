"""Generalized partitioning (relational coarsest partition) and its solvers.

All solvers run on the integer-indexed :class:`~repro.core.lts.LTS` kernel
behind one dispatch: :func:`refine_lts` returns a block id per state of an
interned kernel, and :func:`solve` wraps it for a
:class:`GeneralizedPartitioningInstance`, returning a string-keyed
:class:`Partition`.  The coarsest stable refinement is unique, so the solver
(``method=``) and the backend only choose how it is computed.  Two backends
solve every instance: ``"python"`` -- the worklist solvers (naive /
Kanellakis-Smolka / Paige-Tarjan, the raw ``*_refine_lts`` functions), which
remain the cross-check oracles -- and ``"vector"`` -- the numpy kernel of
:mod:`repro.partition.vectorized`, which also refines memory-mapped CSR
stores (:func:`vector_refine_csr`).
"""

from repro.partition.generalized import (
    BACKENDS,
    GeneralizedPartitioningError,
    GeneralizedPartitioningInstance,
    Solver,
    is_stable,
    is_valid_solution,
    refine_lts,
    solve,
)
from repro.partition.kanellakis_smolka import kanellakis_smolka_refine_lts
from repro.partition.naive import naive_refine_lts
from repro.partition.paige_tarjan import paige_tarjan_refine_lts
from repro.partition.partition import Partition, PartitionError
from repro.partition.refinable import RefinablePartition
from repro.partition.vectorized import (
    vector_refine_arrays,
    vector_refine_csr,
    vector_refine_lts,
)

__all__ = [
    "BACKENDS",
    "GeneralizedPartitioningError",
    "GeneralizedPartitioningInstance",
    "Partition",
    "PartitionError",
    "RefinablePartition",
    "Solver",
    "is_stable",
    "is_valid_solution",
    "kanellakis_smolka_refine_lts",
    "naive_refine_lts",
    "paige_tarjan_refine_lts",
    "refine_lts",
    "solve",
    "vector_refine_arrays",
    "vector_refine_csr",
    "vector_refine_lts",
]
