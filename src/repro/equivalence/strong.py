"""Strong (observational) equivalence -- Section 3 / Theorem 3.1.

Strong equivalence ``~`` is observational equivalence for observable (tau-free)
FSPs; Milner characterises it as the largest strong bisimulation.  Lemma 3.1
reduces deciding it to the generalized partitioning problem: states are the
elements, the initial partition groups states with equal extension sets, and
there is one function per action mapping a state to its successor set.  The
coarsest stable refinement is exactly the partition induced by ``~``.

The functions below expose the partition, the pairwise decision, a quotient
(minimisation) and a counterexample explanation via distinguishing
Hennessy-Milner formulas (delegated to :mod:`repro.equivalence.hml`).

Processes containing tau-transitions are accepted as well: tau is then treated
as an ordinary action label, which yields the notion modern tools call strong
bisimilarity.  Callers that want the paper's precondition enforced can pass
``require_observable=True``.

The reduction interns the process straight into the integer-indexed
:class:`~repro.core.lts.LTS` kernel (states and actions as dense ints,
transitions as CSR arrays), so every partition query below runs at kernel
speed regardless of the solver chosen.
"""

from __future__ import annotations

from repro.core.classify import ModelClass, require
from repro.core.fsp import FSP
from repro.partition.generalized import GeneralizedPartitioningInstance, Solver, solve
from repro.partition.partition import Partition


def strong_bisimulation_partition(
    fsp: FSP,
    method: Solver | str = Solver.PAIGE_TARJAN,
    require_observable: bool = False,
    backend: str = "python",
) -> Partition:
    """The partition of the state set into strong-equivalence classes.

    Parameters
    ----------
    fsp:
        The process whose states are to be partitioned.
    method:
        Which generalized-partitioning solver to use (they agree on the
        result; see Section 3).
    require_observable:
        Enforce the paper's precondition that the process has no
        tau-transitions.  When False (the default) tau is treated as an
        ordinary action.
    backend:
        ``"python"`` for the sequential worklist solvers (the oracles) or
        ``"vector"`` for the numpy whole-array kernel
        (:mod:`repro.partition.vectorized`); both compute the same partition.
    """
    if require_observable:
        require(fsp, ModelClass.OBSERVABLE, context="strong equivalence")
    instance = GeneralizedPartitioningInstance.from_fsp(fsp, include_tau=True)
    return solve(instance, method=method, backend=backend)


def strongly_equivalent(
    fsp: FSP,
    first: str,
    second: str,
    method: Solver | str = Solver.PAIGE_TARJAN,
    require_observable: bool = False,
    backend: str = "python",
) -> bool:
    """Decide ``first ~ second`` for two states of the same FSP."""
    partition = strong_bisimulation_partition(
        fsp, method=method, require_observable=require_observable, backend=backend
    )
    return partition.same_block(first, second)


def strongly_equivalent_processes(
    first: FSP,
    second: FSP,
    method: Solver | str | None = None,
    require_observable: bool = False,
) -> bool:
    """Decide strong equivalence of the start states of two FSPs.

    The two processes must share ``Sigma`` and ``V`` (use
    :meth:`~repro.core.fsp.FSP.with_alphabet` to align them).  This is a thin
    shim over the engine facade (:mod:`repro.engine`): repeated calls against
    the same processes reuse the cached kernels, quotients and verdicts; use
    :meth:`repro.engine.Engine.check` directly for stats and witnesses.
    ``method`` defaults to the engine's solver.
    """
    from repro.engine import default_engine

    hints = {} if method is None else {"method": method}
    return default_engine().check(
        first, second, "strong", witness=False, require_observable=require_observable, **hints
    ).equivalent


def strong_equivalence_classes(
    fsp: FSP, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "python"
) -> frozenset[frozenset[str]]:
    """The set of strong-equivalence classes of the process's states."""
    return strong_bisimulation_partition(fsp, method=method, backend=backend).as_frozen()
