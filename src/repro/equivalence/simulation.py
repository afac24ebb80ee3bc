"""Simulation preorders and similarity -- the one-sided cousins of bisimulation.

The paper's equivalences are all symmetric; the wider equivalence spectrum
that grew out of it (and that modern toolsets expose next to bisimilarity)
also contains the *simulation preorder*: ``p`` is simulated by ``q`` when every
move of ``p`` can be matched by ``q`` -- but not necessarily vice versa.
Mutual similarity is strictly coarser than bisimilarity (the classic witness
being the committed versus uncommitted choice), which makes it a useful
diagnostic between language equivalence and bisimilarity.

The module implements the strong and weak (tau-absorbing) simulation
preorders by greatest-fixed-point iteration over state pairs, plus
``similar``/``similar_processes`` for mutual similarity.  The implementation
is quadratic in the number of state pairs per iteration, which is perfectly
adequate at the process sizes this library targets; it intentionally mirrors
the fixed-point definitions rather than reusing partition refinement (which
cannot express preorders).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.classify import require_same_signature
from repro.core.fsp import EPSILON, FSP, TAU
from repro.core.weak import WeakKernel

Pair = tuple[str, str]


def _strong_moves(fsp: FSP, state: str) -> list[tuple[str, frozenset[str]]]:
    actions = set(fsp.enabled_actions(state))
    return [(action, fsp.successors(state, action)) for action in actions]


def _step(fsp: FSP, weak: bool) -> Callable[[str, str], frozenset[str]]:
    """Single moves by action: strong ones, or the weak ``=>^a`` (``=>^epsilon`` for EPSILON)."""
    return WeakKernel.from_fsp(fsp).weak_successors if weak else fsp.successors


def simulation_preorder(fsp: FSP, weak: bool = False) -> frozenset[Pair]:
    """The largest (strong or weak) simulation relation on the states of ``fsp``.

    A pair ``(p, q)`` belongs to the result when ``q`` simulates ``p``:
    ``E(p) == E(q)`` and every (weak, if ``weak=True``) move of ``p`` is
    matched by an equally-labelled (weak) move of ``q`` into a pair that again
    belongs to the relation.  Extensions are compared for equality, matching
    the paper's convention that behavioural comparisons respect extensions.
    """
    step = _step(fsp, weak)

    def moves(state: str) -> list[tuple[str, frozenset[str]]]:
        if not weak:
            return _strong_moves(fsp, state)
        return [(a, targets) for a in (EPSILON, *fsp.alphabet) if (targets := step(state, a))]

    relation: set[Pair] = {
        (p, q)
        for p in fsp.states
        for q in fsp.states
        if fsp.extension(p) == fsp.extension(q)
    }
    changed = True
    while changed:
        changed = False
        for p, q in list(relation):
            for action, targets in moves(p):
                q_targets = step(q, action)
                for target in targets:
                    if not any((target, candidate) in relation for candidate in q_targets):
                        relation.discard((p, q))
                        changed = True
                        break
                if (p, q) not in relation:
                    break
    return frozenset(relation)


def simulates(fsp: FSP, first: str, second: str, weak: bool = False) -> bool:
    """Whether ``first`` simulates ``second`` (every move of ``second`` is matched by ``first``)."""
    return (second, first) in simulation_preorder(fsp, weak=weak)


def similar(fsp: FSP, first: str, second: str, weak: bool = False) -> bool:
    """Mutual similarity of two states (each simulates the other)."""
    relation = simulation_preorder(fsp, weak=weak)
    return (first, second) in relation and (second, first) in relation


def similar_processes(first: FSP, second: FSP, weak: bool = False) -> bool:
    """Mutual similarity of the start states of two processes."""
    require_same_signature(first, second)
    combined = first.disjoint_union(second)
    return similar(combined, "L:" + first.start, "R:" + second.start, weak=weak)


def is_simulation(fsp: FSP, pairs: frozenset[Pair] | set[Pair], weak: bool = False) -> bool:
    """Whether an explicit relation is a (strong or weak) simulation on ``fsp``.

    Unlike :func:`simulation_preorder` this checks a caller-supplied relation,
    which is how the test suite certifies the computed preorder.
    """
    relation = set(pairs)
    successors = _step(fsp, weak)
    actions = list(fsp.alphabet) + ([EPSILON] if weak else ([TAU] if fsp.has_tau() else []))

    for p, q in relation:
        if fsp.extension(p) != fsp.extension(q):
            return False
        for action in actions:
            q_targets = successors(q, action)
            for target in successors(p, action):
                if not any((target, candidate) in relation for candidate in q_targets):
                    return False
    return True
