"""Generalized partitioning (relational coarsest partition) and its solvers.

All solvers run on the integer-indexed :class:`~repro.core.lts.LTS` kernel;
the ``*_refine_lts`` variants expose the raw integer interface for callers
that already hold an interned system (e.g. DFA minimisation), while the
``*_refine`` functions accept a :class:`GeneralizedPartitioningInstance` and
return a string-keyed :class:`Partition`.

One dispatch, :func:`refine_lts`, runs a solver on an interned kernel and
returns a block id per state; :func:`solve` wraps it for instances.  Two
execution backends solve every instance (``backend=...``):
``"python"`` -- the sequential worklist solvers (naive / Kanellakis-Smolka /
Paige-Tarjan), which remain the cross-check oracles -- and ``"vector"`` --
the numpy whole-array kernel of :mod:`repro.partition.vectorized`, which
also accepts memory-mapped CSR stores for out-of-core refinement.
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
from repro.partition.kanellakis_smolka import (
    kanellakis_smolka_refine,
    kanellakis_smolka_refine_lts,
)
from repro.partition.naive import naive_refine, naive_refine_lts
from repro.partition.paige_tarjan import paige_tarjan_refine, paige_tarjan_refine_lts
from repro.partition.partition import Partition, PartitionError
from repro.partition.refinable import RefinablePartition, partition_from_refinable
from repro.partition.vectorized import (
    vector_refine,
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
    "kanellakis_smolka_refine",
    "kanellakis_smolka_refine_lts",
    "naive_refine",
    "naive_refine_lts",
    "paige_tarjan_refine",
    "paige_tarjan_refine_lts",
    "partition_from_refinable",
    "refine_lts",
    "solve",
    "vector_refine",
    "vector_refine_arrays",
    "vector_refine_csr",
    "vector_refine_lts",
]
