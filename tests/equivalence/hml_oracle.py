"""The ``simeq_k`` chain over name-keyed partitions: the witness oracle.

This is the dict-based route :func:`repro.equivalence.hml.distinguishing_formula`
took before it ran on integer refinement rounds.  It recomputes every level
of the chain with one frozenset signature per state, exactly as Definition
2.2.2 reads, so the tests use it to pin down the separation level -- the
modal depth every witness formula must have.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.fsp import EPSILON, FSP, TAU
from repro.core.weak import WeakKernel
from repro.partition.partition import Partition

#: The actions of one step relation and its successor function.
Moves = tuple[list[str], Callable[[str, str], frozenset[str]]]


def moves(fsp: FSP, weak: bool) -> Moves:
    """The actions and the successor function of single strong or weak moves.

    Strong moves treat tau as a label; weak moves are ``=>^a`` for each
    observable ``a`` plus ``=>^epsilon`` under the empty action name.
    """
    if not weak:
        return sorted(fsp.alphabet) + ([TAU] if fsp.has_tau() else []), fsp.successors
    kernel = WeakKernel.from_fsp(fsp)

    def successors(state: str, action: str) -> frozenset[str]:
        return kernel.weak_successors(state, action or EPSILON)

    return sorted(fsp.alphabet) + [""], successors


def refinement_levels(fsp: FSP, step: Moves) -> list[Partition]:
    """The chain of partitions ``simeq_0, simeq_1, ...`` until it stabilises.

    For the strong case the refinement uses single strong transitions (tau as
    a label); for the weak case it uses single weak moves, i.e. the ``simeq_k``
    chain of Definition 2.2.2.
    """
    actions, successors = step
    levels = [Partition.from_key(fsp.states, key=fsp.extension)]
    while True:
        current = levels[-1]
        signatures = {}
        for state in fsp.states:
            signature = set()
            for action in actions:
                for target in successors(state, action):
                    signature.add((action, current.block_id_of(target)))
            signatures[state] = frozenset(signature)
        next_partition = Partition(list(split_groups(current, signatures)))
        levels.append(next_partition)
        if len(next_partition) == len(current):
            return levels


def split_groups(partition: Partition, signatures: dict[str, frozenset]) -> list[set[str]]:
    groups: list[set[str]] = []
    for block in partition:
        by_signature: dict[frozenset, set[str]] = {}
        for state in block:
            by_signature.setdefault(signatures[state], set()).add(state)
        groups.extend(by_signature.values())
    return groups


def separation_level(levels: list[Partition], first: str, second: str) -> int | None:
    """The first level whose partition separates the two states, or None."""
    for index, partition in enumerate(levels):
        if not partition.same_block(first, second):
            return index
    return None


def oracle_separation_level(fsp: FSP, first: str, second: str, weak: bool) -> int | None:
    """The ``simeq_k`` (strong or weak) separation level of two states of ``fsp``."""
    return separation_level(refinement_levels(fsp, moves(fsp, weak)), first, second)
