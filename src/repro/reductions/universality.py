"""Universality and the trivial NFA (Fig. 5d, closing remark of Section 4).

The classical universality problem ``L(p) = Sigma*`` can be phrased in the
paper's vocabulary as ``p approx_1 q*`` where ``q*`` is the trivial NFA of
Fig. 5d (one accepting state with a self-loop per action); this phrasing is
PSPACE-complete.  The paper closes Section 4 by observing that, in contrast,
``p approx_2 q*`` is easy: it holds iff every state reachable from ``p`` has
an outgoing (weak) transition for every symbol of ``Sigma``.  Intuitively,
level 2 already sees the branching structure, and the only way to match the
trivial NFA's single always-able state is to never reach a state that refuses
anything.

This module implements both sides of that contrast for restricted processes:
the (expensive) ``approx_1`` comparison against ``q*`` and the (linear-time)
structural characterisation of ``approx_2 q*``, which the tests cross-check
against the generic decision procedure (experiment E11).
"""

from __future__ import annotations

from repro.core.classify import ModelClass, require
from repro.core.fsp import FSP, TAU
from repro.core.paper_figures import trivial_nfa
from repro.core.weak import WeakKernel
from repro.equivalence.kobs import k_observational_equivalent_processes
from repro.equivalence.language import is_universal


def approx1_equals_trivial(fsp: FSP, max_states: int | None = None) -> bool:
    """Decide ``p0 approx_1 q*`` -- i.e. universality -- by language comparison.

    This is the PSPACE-complete side of the contrast; the decision
    determinises the process.
    """
    require(fsp, ModelClass.RESTRICTED, context="comparison against the trivial NFA")
    return is_universal(fsp, max_states=max_states)


def approx2_equals_trivial_characterisation(fsp: FSP) -> bool:
    """The linear-time characterisation of ``p0 approx_2 q*``.

    Every state weakly reachable from the start must be able to (weakly)
    perform every action of ``Sigma``.  Stated for restricted processes, where
    extensions cannot interfere with the comparison.
    """
    require(fsp, ModelClass.RESTRICTED, context="approx_2 comparison against the trivial NFA")
    kernel = WeakKernel.from_fsp(fsp)
    for state in fsp.reachable_states():
        if kernel.weak_initials(state) != fsp.alphabet:
            return False
    return True


def approx2_equals_trivial_generic(fsp: FSP, max_subset_states: int | None = None) -> bool:
    """Decide ``p0 approx_2 q*`` with the generic ``approx_k`` procedure (for cross-checks)."""
    require(fsp, ModelClass.RESTRICTED, context="approx_2 comparison against the trivial NFA")
    reference = trivial_nfa(fsp.alphabet)
    return k_observational_equivalent_processes(
        fsp, reference.with_alphabet(fsp.alphabet), 2, max_subset_states=max_subset_states
    )


def refusal_witness(fsp: FSP) -> tuple[str, frozenset[str]] | None:
    """A reachable state and the non-empty set of actions it cannot weakly perform.

    Returns None when no such state exists (i.e. when the characterisation of
    ``approx_2 q*`` holds).  Used by examples to explain *why* a process falls
    short of the trivial NFA.
    """
    kernel = WeakKernel.from_fsp(fsp)
    for state in sorted(fsp.reachable_states()):
        missing = fsp.alphabet - kernel.weak_initials(state)
        if missing:
            return state, frozenset(missing)
    return None


def has_tau_cycle(fsp: FSP) -> bool:
    """Whether the process contains a cycle of tau-transitions.

    Not needed for any equivalence decision; exposed because divergence
    (infinite unobservable chatter) is the classical caveat when interpreting
    observational equivalence, and the examples flag it.
    """
    visiting: set[str] = set()
    finished: set[str] = set()

    def visit(state: str) -> bool:
        visiting.add(state)
        for target in fsp.successors(state, TAU):
            if target in visiting:
                return True
            if target not in finished and visit(target):
                return True
        visiting.discard(state)
        finished.add(state)
        return False

    return any(visit(state) for state in fsp.states if state not in finished)
