"""The tau-saturation of Theorem 4.1(a) and its paper-direct reference constructions.

Section 2.1 of the paper defines the *weak* transition relation ``p =>^s p'``
for a string ``s`` of observable actions: the process may interleave any
number of unobservable tau-moves before, between and after the observable
actions of ``s``.  In particular ``p =>^epsilon p'`` holds when ``p'`` is
reachable from ``p`` by tau-moves only (including the empty sequence, so the
relation is reflexive).

Theorem 4.1(a) decides observational equivalence by *saturating* a general FSP
``P`` into an observable FSP ``P_hat`` over the alphabet ``Sigma u {epsilon}``
whose transition relation is exactly the weak relation, and then checking
strong equivalence on ``P_hat``.  :func:`saturate` implements that
construction at the FSP level.  Queries about the weak relation itself --
tau-closures, weak successor sets, weak initials, string derivatives -- are
answered by :class:`repro.core.weak.WeakKernel`, which also backs
:func:`saturate`.

The dict-of-frozensets constructions :func:`tau_closure_reference` and
:func:`saturate_reference` read the paper's definitions directly, one
breadth-first search per state.  They are the oracles of the kernel's
property tests, and the ``dict_saturation`` route of the ``weak`` benchmark
layer measures the kernel against :func:`saturate_reference`.
"""

from __future__ import annotations

from repro.core.errors import InvalidProcessError
from repro.core.fsp import EPSILON, FSP, TAU, State
from repro.core.lts import LTS
from repro.core.weak import saturate_lts


def tau_closure_reference(fsp: FSP) -> dict[State, frozenset[State]]:
    """Reference tau-closure: one breadth-first search per state.

    Returns a mapping from every state ``p`` to the set
    ``{p' | p =>^epsilon p'}``.  ``O(n * (n + m_tau))`` hashed set operations;
    kept as the oracle for :meth:`repro.core.weak.WeakKernel.closure_dict`
    (which computes the same map via tau-SCC condensation and bitset
    propagation).  The matrix-product formulation the paper uses for its
    ``n^2.376`` bound is :func:`repro.utils.matrices.weak_transition_matrices`.
    """
    closure: dict[State, frozenset[State]] = {}
    for origin in fsp.states:
        seen = {origin}
        frontier = [origin]
        while frontier:
            state = frontier.pop()
            for nxt in fsp.successors(state, TAU):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure[origin] = frozenset(seen)
    return closure


def _weak_successors(
    fsp: FSP, state: State, action: str, closure: dict[State, frozenset[State]]
) -> set[State]:
    """``{q | state =>^action q}``: the paper's ``=>^epsilon ->^a =>^epsilon``."""
    result: set[State] = set()
    for pre in closure[state]:
        for mid in fsp.successors(pre, action):
            result |= closure[mid]
    return result


def saturate_reference(fsp: FSP, epsilon_action: str = EPSILON) -> FSP:
    """Reference construction of ``P_hat``: dict-of-frozensets, per-state loops.

    This is the original (pre-kernel) implementation of Theorem 4.1(a)'s
    saturation, kept as the oracle for :func:`saturate` and the weak-kernel
    property tests.
    """
    if epsilon_action in fsp.alphabet or epsilon_action == TAU:
        raise InvalidProcessError(
            f"epsilon marker {epsilon_action!r} collides with the process alphabet"
        )
    closure = tau_closure_reference(fsp)
    transitions: set[tuple[State, str, State]] = set()
    for state in fsp.states:
        for target in closure[state]:
            transitions.add((state, epsilon_action, target))
        for action in fsp.alphabet:
            for target in _weak_successors(fsp, state, action, closure):
                transitions.add((state, action, target))
    return FSP(
        states=fsp.states,
        start=fsp.start,
        alphabet=fsp.alphabet | {epsilon_action},
        transitions=transitions,
        variables=fsp.variables,
        extensions=fsp.extensions,
    )


def saturate(fsp: FSP, epsilon_action: str = EPSILON) -> FSP:
    """The observable FSP ``P_hat`` of Theorem 4.1(a).

    ``P_hat`` has the same states, variables and extensions as ``P`` but its
    alphabet is ``Sigma u {epsilon_action}`` and its transitions are exactly
    the weak transitions of ``P``:

    * ``p --a--> q`` in ``P_hat`` iff ``p =>^a q`` in ``P``, for ``a`` in
      ``Sigma``;
    * ``p --epsilon--> q`` in ``P_hat`` iff ``p =>^epsilon q`` in ``P``
      (note this includes a self-loop on every state because ``=>^epsilon``
      is reflexive).

    The key property (Proposition 2.2.1(c) + Theorem 4.1(a)) is that two
    states are observationally equivalent in ``P`` iff they are strongly
    equivalent in ``P_hat``.

    Computed on the CSR kernel (:func:`repro.core.weak.saturate_lts`) and
    rendered back as an FSP; equal, state for state and arc for arc, to
    :func:`saturate_reference`.  Callers that go on to run partition
    refinement should prefer staying in kernel form
    (``saturate_lts(LTS.from_fsp(p, include_tau=True))``) and skip this FSP
    round-trip entirely, as :mod:`repro.equivalence.observational` does.

    Parameters
    ----------
    fsp:
        Any general FSP.
    epsilon_action:
        The label used for the ``=>^epsilon`` relation.  It must not already
        belong to the alphabet.

    Raises
    ------
    InvalidProcessError
        If ``epsilon_action`` collides with an existing action.
    """
    return saturate_lts(LTS.from_fsp(fsp, include_tau=True), epsilon_action).to_fsp()
