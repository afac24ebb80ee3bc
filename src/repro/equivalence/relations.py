"""Explicit bisimulation relations and fixed-point checks.

Definition 2.2.5 of the paper introduces ``Lambda``-fixed-points: binary
relations ``R`` on states such that related states have equal extensions and
matching ``s``-derivatives for every string ``s`` in ``Lambda``, up to ``R``.
For observable processes a ``Sigma``-fixed-point is Milner's *strong
bisimulation*; strong equivalence is the largest one (Proposition 2.2.2).
Analogously a ``(Sigma u {epsilon})``-fixed-point over the weak transition
relation is a *weak bisimulation* and observational equivalence is the largest
one.

This module lets callers work with explicit relations: check whether a given
set of pairs is a (strong or weak) bisimulation, close a relation under
symmetry/reflexivity, extract the relation induced by a partition, and verify
the fixed-point properties that Proposition 2.2.1 asserts.  The checkers are
deliberately straightforward (they follow the definitions) because their main
job is to certify the answers of the optimised partition-refinement
algorithms in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.fsp import EPSILON, FSP, TAU
from repro.core.weak import WeakKernel
from repro.partition.partition import Partition

Pair = tuple[str, str]


def symmetric_closure(pairs: Iterable[Pair]) -> frozenset[Pair]:
    """The symmetric closure of a set of state pairs."""
    out = set()
    for first, second in pairs:
        out.add((first, second))
        out.add((second, first))
    return frozenset(out)


def reflexive_closure(pairs: Iterable[Pair], states: Iterable[str]) -> frozenset[Pair]:
    """Add the identity pairs over ``states``."""
    return frozenset(pairs) | {(state, state) for state in states}


def relation_from_partition(partition: Partition) -> frozenset[Pair]:
    """The equivalence relation (as a set of pairs) induced by a partition."""
    pairs: set[Pair] = set()
    for block in partition:
        for first in block:
            for second in block:
                pairs.add((first, second))
    return frozenset(pairs)


def partition_from_relation(states: Iterable[str], pairs: Iterable[Pair]) -> Partition:
    """The partition induced by an equivalence relation given as pairs.

    The relation is closed reflexively and symmetrically first; transitivity
    is obtained by union-find-style merging.
    """
    states = list(states)
    parent = {state: state for state in states}

    def find(state: str) -> str:
        while parent[state] != state:
            parent[state] = parent[parent[state]]
            state = parent[state]
        return state

    for first, second in pairs:
        if first in parent and second in parent:
            parent[find(first)] = find(second)
    groups: dict[str, set[str]] = {}
    for state in states:
        groups.setdefault(find(state), set()).add(state)
    return Partition(groups.values())


def is_strong_bisimulation(fsp: FSP, pairs: Iterable[Pair], tau_as_action: bool = True) -> bool:
    """Whether ``pairs`` (symmetrically closed) is a strong bisimulation on ``fsp``.

    The transfer condition follows Definition 2.2.5 with ``Lambda = Sigma``
    (plus tau as a label when ``tau_as_action``): related states must have
    equal extensions, and every single-action move of one must be matched by
    an equally-labelled move of the other into a related state.
    """
    relation = symmetric_closure(pairs)
    related: dict[str, set[str]] = {}
    for first, second in relation:
        related.setdefault(first, set()).add(second)
    actions = set(fsp.alphabet)
    if tau_as_action:
        actions.add(TAU)
    for first, second in relation:
        if fsp.extension(first) != fsp.extension(second):
            return False
        for action in actions:
            for target in fsp.successors(first, action):
                matches = fsp.successors(second, action)
                if not any(candidate in related.get(target, set()) for candidate in matches):
                    return False
    return True


def is_weak_bisimulation(fsp: FSP, pairs: Iterable[Pair]) -> bool:
    """Whether ``pairs`` is a weak bisimulation (a ``(Sigma u {eps})``-fixed-point).

    This is the fixed-point notion of Proposition 2.2.2: related states have
    equal extensions, and every weak move ``p =>^a p'`` (for ``a`` in
    ``Sigma u {epsilon}``) is matched by a weak move of the partner into a
    related state.
    """
    relation = symmetric_closure(pairs)
    related: dict[str, set[str]] = {}
    for first, second in relation:
        related.setdefault(first, set()).add(second)
    kernel = WeakKernel.from_fsp(fsp)
    actions = list(fsp.alphabet) + [EPSILON]
    for first, second in relation:
        if fsp.extension(first) != fsp.extension(second):
            return False
        for action in actions:
            for target in kernel.weak_successors(first, action):
                matches = kernel.weak_successors(second, action)
                if not any(candidate in related.get(target, set()) for candidate in matches):
                    return False
    return True


def largest_strong_bisimulation(fsp: FSP) -> frozenset[Pair]:
    """The largest strong bisimulation on the states of ``fsp`` as a pair set.

    Computed from the strong-equivalence partition; by Proposition 2.2.2 this
    relation is itself a bisimulation and contains every other one.
    """
    from repro.equivalence.strong import strong_bisimulation_partition

    return relation_from_partition(strong_bisimulation_partition(fsp))


def largest_weak_bisimulation(fsp: FSP) -> frozenset[Pair]:
    """The largest weak bisimulation (observational equivalence) as a pair set."""
    from repro.equivalence.observational import observational_partition

    return relation_from_partition(observational_partition(fsp))
