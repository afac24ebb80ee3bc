"""Weak derivatives and the tau-saturation of Theorem 4.1(a).

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
construction; the remaining helpers expose tau-closures, weak successor sets
and weak string derivatives, which are also the substrate for failure
semantics (Section 5) and for the language view of ``approx_1``.

Since the weak-transition engine landed, the closure and saturation entry
points are backed by :mod:`repro.core.weak` (tau-SCC condensation plus bitset
propagation on the integer CSR kernel).  The original dict-of-frozensets
implementations are retained verbatim as :func:`tau_closure_reference` and
:func:`saturate_reference`; they are the oracles the kernel's property tests
check against, and they remain the clearest rendering of the paper's
definitions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.errors import InvalidProcessError
from repro.core.fsp import EPSILON, FSP, TAU, State
from repro.core.lts import LTS
from repro.core.weak import WeakKernel, bits_iter, saturate_lts


def tau_closure_reference(fsp: FSP) -> dict[State, frozenset[State]]:
    """Reference tau-closure: one breadth-first search per state.

    Returns a mapping from every state ``p`` to the set
    ``{p' | p =>^epsilon p'}``.  ``O(n * (n + m_tau))`` hashed set operations;
    kept as the oracle for :func:`tau_closure` (which computes the same map on
    the CSR kernel via tau-SCC condensation and bitset propagation).  The
    matrix-product formulation the paper uses for its ``n^2.376`` bound is
    :func:`repro.utils.matrices.weak_transition_matrices`.
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


def tau_closure(fsp: FSP) -> dict[State, frozenset[State]]:
    """The reflexive-transitive closure of the tau-transition relation.

    Returns a mapping from every state ``p`` to the set
    ``{p' | p =>^epsilon p'}``.  Computed on the integer kernel
    (:class:`repro.core.weak.WeakKernel`): one Tarjan pass over the tau
    sub-relation plus one bitset union per condensation arc, instead of one
    BFS per state.  Agrees with :func:`tau_closure_reference` by construction
    (and by the kernel property tests).
    """
    return WeakKernel.from_fsp(fsp).closure_dict()


def closure_of_set(
    fsp: FSP, states: Iterable[State], closure: dict[State, frozenset[State]] | None = None
) -> frozenset[State]:
    """The tau-closure of a *set* of states."""
    closure = closure if closure is not None else tau_closure(fsp)
    out: set[State] = set()
    for state in states:
        out |= closure[state]
    return frozenset(out)


def weak_successors(
    fsp: FSP,
    state: State,
    action: State,
    closure: dict[State, frozenset[State]] | None = None,
) -> frozenset[State]:
    """The set ``{p' | p =>^a p'}`` for a single observable action ``a``.

    Following the paper's decomposition, ``p =>^a q`` iff there exist ``p'``
    and ``p''`` with ``p =>^epsilon p' ->^a p'' =>^epsilon q``.  Passing
    ``action == EPSILON`` returns the plain tau-closure of ``state``.
    """
    closure = closure if closure is not None else tau_closure(fsp)
    if action == EPSILON:
        return closure[state]
    if action == TAU:
        raise InvalidProcessError(
            "weak successors are indexed by observable actions or EPSILON, not TAU"
        )
    result: set[State] = set()
    for pre in closure[state]:
        for mid in fsp.successors(pre, action):
            result |= closure[mid]
    return frozenset(result)


def weak_successors_of_set(
    fsp: FSP,
    states: Iterable[State],
    action: State,
    closure: dict[State, frozenset[State]] | None = None,
) -> frozenset[State]:
    """Weak ``action``-successors of a set of states (used by subset constructions)."""
    closure = closure if closure is not None else tau_closure(fsp)
    out: set[State] = set()
    for state in states:
        out |= weak_successors(fsp, state, action, closure)
    return frozenset(out)


def string_derivatives(
    fsp: FSP,
    state: State,
    string: Sequence[State],
    closure: dict[State, frozenset[State]] | None = None,
) -> frozenset[State]:
    """The set of ``s``-derivatives ``{p' | p =>^s p'}`` for a string ``s``.

    ``string`` is a sequence of observable actions; the empty sequence yields
    the tau-closure of ``state``.
    """
    closure = closure if closure is not None else tau_closure(fsp)
    current = closure[state]
    for action in string:
        current = weak_successors_of_set(fsp, current, action, closure)
        if not current:
            return frozenset()
    return current


def weak_initials(
    fsp: FSP,
    state: State,
    closure: dict[State, frozenset[State]] | None = None,
) -> frozenset[State]:
    """The *observable* actions ``a`` for which ``state =>^a`` holds.

    This is the complement-defining set for the failure semantics of
    Section 5: a refusal set ``Z`` is valid at ``p'`` exactly when
    ``Z`` is disjoint from ``weak_initials(p')``.

    Only observable actions are considered: the :data:`EPSILON` marker (which
    enters the alphabet of saturated processes and for which ``=>^epsilon``
    trivially holds at every state) is skipped, and :data:`TAU` -- were it
    ever handed in via a malformed alphabet -- is rejected by
    :func:`weak_successors`.
    """
    closure = closure if closure is not None else tau_closure(fsp)
    initials: set[State] = set()
    for action in fsp.alphabet:
        if action == EPSILON:
            continue
        if weak_successors(fsp, state, action, closure):
            initials.add(action)
    return frozenset(initials)


def saturate_reference(fsp: FSP, epsilon_action: str = EPSILON) -> FSP:
    """Reference construction of ``P_hat``: dict-of-frozensets, per-state loops.

    This is the original (pre-kernel) implementation of Theorem 4.1(a)'s
    saturation, kept verbatim as the oracle for :func:`saturate` and the
    weak-kernel property tests.
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
            for target in weak_successors(fsp, state, action, closure):
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


class WeakTransitionView:
    """A cached view of the weak transition structure of one FSP.

    Several algorithms (failure equivalence, ``approx_k`` refinement, the
    language view) repeatedly need tau-closures and weak successor sets of the
    same process.  The view interns the process once into a
    :class:`~repro.core.weak.WeakKernel` and answers every query from its
    bitsets; the public API is unchanged from the dict era (all answers are
    ``frozenset``s of state names).

    Pass an existing ``kernel`` (built over ``LTS.from_fsp(fsp,
    include_tau=True)``) to share one interned kernel between several
    consumers -- the engine's :class:`~repro.engine.process.Process` handle
    does this so the view and the saturation pipeline reuse one tau-SCC
    decomposition.
    """

    def __init__(self, fsp: FSP, kernel: WeakKernel | None = None) -> None:
        self._fsp = fsp
        self._kernel = kernel if kernel is not None else WeakKernel.from_fsp(fsp)
        self._closure: dict[State, frozenset[State]] | None = None
        self._weak_cache: dict[tuple[State, str], frozenset[State]] = {}
        self._initials_cache: dict[State, frozenset[State]] = {}

    @property
    def fsp(self) -> FSP:
        return self._fsp

    @property
    def kernel(self) -> WeakKernel:
        """The backing kernel (for callers that want to stay in bitset form)."""
        return self._kernel

    @property
    def closure(self) -> dict[State, frozenset[State]]:
        if self._closure is None:
            self._closure = self._kernel.closure_dict()
        return self._closure

    def epsilon_closure(self, state: State) -> frozenset[State]:
        return self._kernel.epsilon_closure(state)

    def weak_successors(self, state: State, action: str) -> frozenset[State]:
        key = (state, action)
        cached = self._weak_cache.get(key)
        if cached is None:
            cached = self._kernel.weak_successors(state, action)
            self._weak_cache[key] = cached
        return cached

    def weak_successors_of_set(self, states: Iterable[State], action: str) -> frozenset[State]:
        kernel = self._kernel
        bits = 0
        for state in states:
            bits |= kernel.weak_bits(kernel.state_index(state), action)
        return kernel.names_of(bits)

    def weak_initials(self, state: State) -> frozenset[State]:
        cached = self._initials_cache.get(state)
        if cached is None:
            cached = frozenset(
                action
                for action in self._fsp.alphabet
                if action != EPSILON and self.weak_successors(state, action)
            )
            self._initials_cache[state] = cached
        return cached

    def string_derivatives(self, state: State, string: Sequence[str]) -> frozenset[State]:
        kernel = self._kernel
        bits = kernel.closure_bits(kernel.state_index(state))
        for action in string:
            step = 0
            for target in bits_iter(bits):
                step |= kernel.weak_bits(target, action)
            bits = step
            if not bits:
                break
        return kernel.names_of(bits)
