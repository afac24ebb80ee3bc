"""Observational equivalence -- Theorem 4.1(a).

Observational equivalence ``approx`` is the limit of the chain ``approx_k`` of
Definition 2.2.1 and, by Proposition 2.2.1(c), coincides with *limited*
observational equivalence ``simeq`` (Definition 2.2.2), which only quantifies
over single-action weak moves.  Theorem 4.1(a) turns this into a polynomial
algorithm:

1. saturate the process: build the observable kernel ``P_hat`` over
   ``Sigma u {epsilon}`` whose arcs are the weak transitions of ``P``
   (:func:`repro.core.weak.saturate_lts`, tau-SCC condensation + bitset
   propagation straight on the CSR :class:`~repro.core.lts.LTS`);
2. decide strong equivalence on ``P_hat`` by generalized partitioning.

Two states of ``P`` are observationally equivalent iff they are strongly
equivalent in ``P_hat``.

The direct fixed point of Definition 2.2.2
(:func:`repro.equivalence.kobs.limited_observational_partition`) is the
oracle: property-based tests check that it always agrees with the saturation
route (experiment E13).
"""

from __future__ import annotations

from repro.core.fsp import FSP
from repro.core.lts import LTS
from repro.core.weak import saturate_lts
from repro.partition.generalized import GeneralizedPartitioningInstance, Solver, solve
from repro.partition.partition import Partition


def observational_partition(
    fsp: FSP,
    method: Solver | str = Solver.PAIGE_TARJAN,
    backend: str = "python",
) -> Partition:
    """The partition of the state set into observational-equivalence classes.

    Implements the algorithm of Theorem 4.1(a): saturation followed by strong
    partition refinement.  The whole pipeline stays on the integer kernel --
    ``FSP -> LTS -> saturated LTS -> RefinablePartition`` -- via
    :func:`repro.core.weak.saturate_lts` and
    :meth:`~repro.partition.generalized.GeneralizedPartitioningInstance.from_lts`;
    no dict-of-frozensets saturated FSP is ever materialised.  ``backend``
    selects the refinement's kernel; ``"vector"`` refines on numpy, and the
    saturation is the same either way.
    """
    saturated = saturate_lts(LTS.from_fsp(fsp, include_tau=True))
    return solve(
        GeneralizedPartitioningInstance.from_lts(saturated), method=method, backend=backend
    )


def observationally_equivalent(
    fsp: FSP,
    first: str,
    second: str,
    method: Solver | str = Solver.PAIGE_TARJAN,
    backend: str = "python",
) -> bool:
    """Decide ``first approx second`` for two states of the same FSP."""
    return observational_partition(fsp, method=method, backend=backend).same_block(first, second)


def observationally_equivalent_processes(
    first: FSP,
    second: FSP,
    method: Solver | str | None = None,
) -> bool:
    """Decide observational equivalence of the start states of two FSPs.

    A thin shim over the engine facade (:mod:`repro.engine`): repeated calls
    against the same processes reuse cached saturations, quotients and
    verdicts; use :meth:`repro.engine.Engine.check` for stats and witnesses.
    ``method`` defaults to the engine's solver.
    """
    from repro.engine import default_engine

    hints = {} if method is None else {"method": method}
    return default_engine().check(
        first, second, "observational", witness=False, **hints
    ).equivalent
