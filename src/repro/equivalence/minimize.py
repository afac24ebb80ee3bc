"""Quotient (minimisation) of processes by equivalence partitions.

Partition refinement does not only answer yes/no equivalence questions; the
computed coarsest partition immediately yields the *minimal* process obtained
by collapsing each equivalence class to a single state.  This is the
behaviour-preserving state minimisation that makes the partition-refinement
approach the workhorse of practical verification tools, and it is what the
``minimization_pipeline`` example demonstrates.

Two quotients are provided:

* :func:`minimize_strong` collapses strong-equivalence classes; the result is
  strongly equivalent to the input (state by state).
* :func:`minimize_observational` collapses observational-equivalence classes;
  the result is observationally equivalent to the input.  The quotient keeps
  the original (strong) transitions between class representatives, which is
  sound because observational equivalence is coarser than strong equivalence.

Both partitions are computed on the integer-indexed LTS kernel: strong
equivalence via the Lemma 3.1 reduction in
:mod:`repro.partition.generalized`, observational equivalence via the
weak-transition engine (``FSP -> LTS -> saturated LTS ->
RefinablePartition``, :func:`repro.core.weak.saturate_lts`).  Only the final
quotient construction works on the string-named FSP view.
"""

from __future__ import annotations

from repro.core.fsp import FSP
from repro.equivalence.observational import observational_partition
from repro.equivalence.strong import strong_bisimulation_partition
from repro.partition.generalized import Solver
from repro.partition.partition import Partition


def quotient(fsp: FSP, partition: Partition, drop_unreachable: bool = True) -> FSP:
    """Collapse a process along an equivalence partition of its states.

    Each block becomes a single state named after its lexicographically
    smallest member (wrapped in brackets); a transition ``[p] --a--> [q]``
    exists when some member of ``[p]`` has an ``a``-transition to some member
    of ``[q]``.  Extensions are taken from the representative (all members of
    a block produced by the library's equivalences share their extension set).
    """
    representative: dict[str, str] = {}
    for block in partition:
        name = f"[{min(block)}]"
        for state in block:
            representative[state] = name

    transitions = {
        (representative[src], action, representative[dst])
        for src, action, dst in fsp.transitions
    }
    extensions = {(representative[state], var) for state, var in fsp.extensions}
    quotiented = FSP(
        states=set(representative.values()),
        start=representative[fsp.start],
        alphabet=fsp.alphabet,
        transitions=transitions,
        variables=fsp.variables,
        extensions=extensions,
    )
    return quotiented.restrict_to_reachable() if drop_unreachable else quotiented


def minimize_strong(
    fsp: FSP, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "python"
) -> FSP:
    """The quotient of a process by strong equivalence.

    ``backend`` selects the partition engine: the sequential Python worklist
    solvers, or (``"vector"``) the vectorized numpy kernel.
    """
    return quotient(
        fsp, strong_bisimulation_partition(fsp, method=method, backend=backend)
    )


def minimize_observational(
    fsp: FSP, method: Solver | str = Solver.PAIGE_TARJAN, backend: str = "python"
) -> FSP:
    """The quotient of a process by observational equivalence.

    With ``backend="vector"`` the refinement of the saturated process runs
    on the numpy kernel (see
    :func:`repro.equivalence.observational.observational_partition`).
    """
    return quotient(fsp, observational_partition(fsp, method=method, backend=backend))


def reduction_ratio(original: FSP, minimized: FSP) -> float:
    """State-count reduction achieved by a quotient, as a fraction in [0, 1]."""
    if original.num_states == 0:  # pragma: no cover - FSPs are never empty
        return 0.0
    return 1.0 - (minimized.num_states / original.num_states)
