"""Failure semantics and failure equivalence -- Section 5 / Theorem 5.1.

For a state ``p`` of a restricted FSP the paper (following Brookes, Hoare &
Roscoe) defines

    ``failures(p) = {(s, Z) | s in Sigma*, Z subset of Sigma,
                      exists p' with p =>^s p' and no z in Z with p' =>^z}``

and calls two states *failure equivalent* when their failure sets coincide.
Theorem 5.1 shows the decision problem is PSPACE-complete already for
restricted observable processes over two actions (and co-NP-complete in the
r.o.u. model), so any exact algorithm is expected to be exponential in the
worst case.  The checker below walks the synchronised subset construction of
the two weak-transition automata and compares, at every reachable pair of
macro-states, the canonical *refusal information* (the maximal refusal sets);
its worst case is exponential, but on tree-like and deterministic processes it
is polynomial, which covers the tractable special cases the paper mentions
(finite trees, Smolka 1984).

The module also exposes bounded enumeration of failure pairs (for display and
exhaustive testing) and a purpose-built polynomial fast path for finite trees.

All weak-transition queries (tau-closures, weak successor sets, weak
initials) go to one :class:`~repro.core.weak.WeakKernel` per process, which
answers them from its tau-SCC condensation and closure bitsets.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable

from repro.core.classify import ModelClass, require, require_same_signature
from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import FSP
from repro.core.weak import WeakKernel

FailurePair = tuple[tuple[str, ...], frozenset[str]]


# ----------------------------------------------------------------------
# refusal bookkeeping
# ----------------------------------------------------------------------
def refusal_sets(fsp: FSP, state: str) -> frozenset[frozenset[str]]:
    """All refusal sets of a single state: subsets of ``Sigma`` it cannot weakly perform."""
    refusable = fsp.alphabet - WeakKernel.from_fsp(fsp).weak_initials(state)
    return frozenset(
        frozenset(combo)
        for size in range(len(refusable) + 1)
        for combo in itertools.combinations(sorted(refusable), size)
    )


def maximal_refusals(
    fsp: FSP, states: Iterable[str], kernel: WeakKernel | None = None
) -> frozenset[frozenset[str]]:
    """The maximal refusal sets offered by a set of ``s``-derivatives.

    For a macro-state ``M`` (the set of ``s``-derivatives of some state) the
    failure pairs with first component ``s`` are exactly the pairs ``(s, Z)``
    with ``Z`` included in ``Sigma \\ weak_initials(p')`` for some ``p'`` in
    ``M``.  Two macro-states contribute the same failure pairs iff their sets
    of *maximal* refusals coincide, which is the canonical form compared by
    the equivalence checker.  Pass the process's ``kernel`` to share it
    across calls.
    """
    kernel = kernel if kernel is not None else WeakKernel.from_fsp(fsp)
    candidates = {fsp.alphabet - kernel.weak_initials(state) for state in states}
    maximal = {
        refusal
        for refusal in candidates
        if not any(refusal < other for other in candidates)
    }
    return frozenset(maximal)


# ----------------------------------------------------------------------
# bounded enumeration (used by tests and the examples)
# ----------------------------------------------------------------------
def failures_upto(fsp: FSP, state: str, max_length: int) -> frozenset[FailurePair]:
    """All failure pairs ``(s, Z)`` with ``|s| <= max_length``.

    Exponential in ``max_length`` and in ``|Sigma|`` (every subset of a
    refusable set is enumerated); intended for small processes and exhaustive
    cross-checks such as the Section 2.1 finite-tree example.
    """
    require(fsp, ModelClass.RESTRICTED, context="failures are defined on the restricted model")
    kernel = WeakKernel.from_fsp(fsp)
    result: set[FailurePair] = set()
    frontier: deque[tuple[tuple[str, ...], frozenset[str]]] = deque(
        [((), kernel.epsilon_closure(state))]
    )
    seen: set[tuple[tuple[str, ...], frozenset[str]]] = set()
    while frontier:
        string, macro = frontier.popleft()
        if not macro:
            continue
        for derivative in macro:
            refusable = fsp.alphabet - kernel.weak_initials(derivative)
            for size in range(len(refusable) + 1):
                for combo in itertools.combinations(sorted(refusable), size):
                    result.add((string, frozenset(combo)))
        if len(string) >= max_length:
            continue
        for action in sorted(fsp.alphabet):
            nxt = kernel.weak_successors_of_set(macro, action)
            key = (string + (action,), nxt)
            if nxt and key not in seen:
                seen.add(key)
                frontier.append(key)
    return frozenset(result)


# ----------------------------------------------------------------------
# the equivalence decision
# ----------------------------------------------------------------------
def failure_equivalent(
    fsp: FSP,
    first: str,
    second: str,
    max_macro_states: int | None = None,
) -> bool:
    """Decide failure equivalence of two states of the same restricted FSP."""
    return failure_distinguishing_string(fsp, first, second, max_macro_states) is None


def failure_distinguishing_string(
    fsp: FSP,
    first: str,
    second: str,
    max_macro_states: int | None = None,
) -> tuple[str, ...] | None:
    """A string ``s`` witnessing a failure difference, or None when equivalent.

    The witness is a string for which the two states offer different refusal
    information (including the case where only one of them has an
    ``s``-derivative at all).  The search explores the synchronised subset
    construction breadth-first, so the witness returned is one of minimal
    length.

    Raises
    ------
    StateSpaceLimitError
        If more than ``max_macro_states`` pairs of macro-states are explored.
    """
    found = failure_search(fsp, first, second, max_macro_states)
    return None if found is None else found[0]


def failure_search(
    fsp: FSP,
    first: str,
    second: str,
    max_macro_states: int | None = None,
) -> tuple[tuple[str, ...], frozenset[str], frozenset[str], WeakKernel] | None:
    """The search behind :func:`failure_distinguishing_string`.

    Returns the distinguishing string together with the two macro-states
    the search held when it stopped -- the string-derivatives of ``first``
    and of ``second`` -- and the kernel that computed them, so a caller can
    read a refusal pair off them without replaying the string (the engine's
    failure witness does).  None when the states are failure equivalent.
    """
    require(fsp, ModelClass.RESTRICTED, context="failure equivalence")
    kernel = WeakKernel.from_fsp(fsp)
    actions = sorted(fsp.alphabet)
    start = (kernel.epsilon_closure(first), kernel.epsilon_closure(second))
    queue: deque[tuple[frozenset[str], frozenset[str], tuple[str, ...]]] = deque(
        [(start[0], start[1], ())]
    )
    seen = {start}
    while queue:
        left, right, string = queue.popleft()
        if bool(left) != bool(right):
            # One state has an s-derivative (hence at least the failure (s, {}))
            # and the other has none.
            return string, left, right, kernel
        if maximal_refusals(fsp, left, kernel) != maximal_refusals(fsp, right, kernel):
            return string, left, right, kernel
        for action in actions:
            next_left = kernel.weak_successors_of_set(left, action)
            next_right = kernel.weak_successors_of_set(right, action)
            if not next_left and not next_right:
                continue
            key = (next_left, next_right)
            if key not in seen:
                seen.add(key)
                if max_macro_states is not None and len(seen) > max_macro_states:
                    raise StateSpaceLimitError(
                        f"failure-equivalence search exceeded {max_macro_states} macro-state pairs"
                    )
                queue.append((next_left, next_right, string + (action,)))
    return None


def failure_equivalent_processes(
    first: FSP, second: FSP, max_macro_states: int | None = None
) -> bool:
    """Decide failure equivalence of the start states of two restricted FSPs.

    A thin shim over the engine facade (:mod:`repro.engine`): the subset
    construction runs on the cached observational quotients (observational
    equivalence refines failure equivalence, so the quotients have the same
    failure sets), and ``max_macro_states`` bounds that search.
    """
    from repro.engine import default_engine

    return default_engine().check(
        first, second, "failure", witness=False, max_macro_states=max_macro_states
    ).equivalent


# ----------------------------------------------------------------------
# the finite-tree fast path (Smolka 1984)
# ----------------------------------------------------------------------
def tree_failure_signature(
    fsp: FSP, state: str | None = None
) -> frozenset[tuple[tuple[str, ...], frozenset[str]]]:
    """Canonical failure signature of a finite-tree process.

    For finite trees the set of strings with a derivative is finite (at most
    one string per node), so the whole failure set has a finite canonical
    representation: the set of pairs ``(s, R)`` with ``R`` a *maximal* refusal
    at some ``s``-derivative.  Two finite-tree states are failure equivalent
    iff their signatures are equal; computing the signature is polynomial in
    the size of the tree, which is the tractable case identified by
    Smolka (1984).
    """
    require(fsp, ModelClass.FINITE_TREE, context="tree failure signature")
    kernel = WeakKernel.from_fsp(fsp)
    root = fsp.start if state is None else state
    signature: set[tuple[tuple[str, ...], frozenset[str]]] = set()
    frontier: deque[tuple[tuple[str, ...], frozenset[str]]] = deque(
        [((), kernel.epsilon_closure(root))]
    )
    while frontier:
        string, macro = frontier.popleft()
        if not macro:
            continue
        for refusal in maximal_refusals(fsp, macro, kernel):
            signature.add((string, refusal))
        for action in sorted(fsp.alphabet):
            nxt = kernel.weak_successors_of_set(macro, action)
            if nxt:
                frontier.append((string + (action,), nxt))
    return frozenset(signature)


def tree_failure_equivalent(first: FSP, second: FSP) -> bool:
    """Failure equivalence of two finite-tree processes via canonical signatures."""
    require_same_signature(first, second)
    return tree_failure_signature(first) == tree_failure_signature(second)
