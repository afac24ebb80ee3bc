"""The approximation chains ``approx_k`` and ``simeq_k`` -- Definitions 2.2.1 and 2.2.2.

The paper defines observational equivalence as the intersection of a chain of
successively finer relations:

* ``approx_k`` (*k-observational equivalence*, Definition 2.2.1) matches weak
  derivatives over **all strings** ``s`` in ``Sigma*`` down to depth ``k``;
  ``approx_1`` is NFA language equivalence on standard processes
  (Proposition 2.2.3(b)) and deciding any fixed ``approx_k`` is
  PSPACE-complete (Theorem 4.1(b)).
* ``simeq_k`` (*k-limited observational equivalence*, Definition 2.2.2)
  matches only single-action weak moves; its limit equals ``approx``
  (Proposition 2.2.1(c)) and each level is computable by one round of
  partition refinement on the saturated process.

``approx_k`` is computed here through the characterisation used in the
membership half of Theorem 4.1(b): with ``{B_i}`` the partition induced by
``approx_k``,

    ``p approx_{k+1} q   iff   for every block B_i,  L_i(p) = L_i(q)``

where ``L_i(p)`` is the language of the weak-transition NFA with start state
``p`` and accepting set ``B_i``.  All the block languages of two states are
compared at once: ``s`` is in ``L_i(p)`` exactly when the macrostate of
``s``-derivatives of ``p`` meets ``B_i``, so one
:func:`~repro.equivalence.language.subset_search` whose macrostates observe
the set of blocks they meet decides ``L_i(p) = L_i(q)`` for every ``i``.
Each round shares one :class:`~repro.equivalence.language.MacroMoves` table
among all its searches, and blocks are integer ids.  :func:`approx_chain`
walks the chain one round at a time over any arcs and closures: the free
functions give it one process's :class:`~repro.core.weak.WeakKernel`, and
the engine the union of two cached saturated observational quotients.  The
subset construction is exponential in the worst case -- which is the
behaviour the PSPACE-completeness result says cannot be avoided for fixed
``k`` (contrast with the polynomial limit, experiment E8).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.fsp import EPSILON, FSP
from repro.core.lts import LTS
from repro.core.weak import WeakKernel, bits_to_indices
from repro.equivalence.language import MacroMoves, require_observable, subset_search
from repro.partition.partition import Partition
from repro.partition.refinable import partition_of_blocks


# ----------------------------------------------------------------------
# simeq_k : k-limited observational equivalence
# ----------------------------------------------------------------------
def k_limited_partition(fsp: FSP, k: int) -> Partition:
    """The partition induced by ``simeq_k`` (Definition 2.2.2).

    ``k = 0`` groups states by extension set; each further level is one
    refinement round against single-action weak moves.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    kernel = WeakKernel.from_fsp(fsp)
    actions = sorted(fsp.alphabet) + [EPSILON]
    partition = Partition.from_key(fsp.states, key=fsp.extension)
    for _ in range(k):
        signatures: dict[str, frozenset[tuple[str, int]]] = {}
        for state in fsp.states:
            signature = set()
            for action in actions:
                for target in kernel.weak_successors(state, action):
                    signature.add((action, partition.block_id_of(target)))
            signatures[state] = frozenset(signature)
        if not partition.split_by_key(lambda state: signatures[state]):
            break  # reached the fixed point early: simeq_j = simeq for all j >= this level
    return partition


def k_limited_equivalent(fsp: FSP, first: str, second: str, k: int) -> bool:
    """Decide ``first simeq_k second`` for two states of the same FSP."""
    return k_limited_partition(fsp, k).same_block(first, second)


def limited_observational_partition(fsp: FSP) -> Partition:
    """The partition induced by ``simeq`` (the limit of the ``simeq_k`` chain).

    Equivalent to :func:`repro.equivalence.observational.observational_partition`
    by Proposition 2.2.1(c); computed here by iterating ``simeq_k`` to its
    fixed point, which takes at most ``|K|`` rounds.
    """
    return k_limited_partition(fsp, len(fsp.states) + 1)


# ----------------------------------------------------------------------
# approx_k : k-observational equivalence
# ----------------------------------------------------------------------
def k_observational_partition(fsp: FSP, k: int, max_subset_states: int | None = None) -> Partition:
    """The partition induced by ``approx_k`` (Definition 2.2.1).

    Parameters
    ----------
    fsp:
        The process whose states are partitioned.
    k:
        The level of the approximation chain; ``k = 0`` groups states by
        extension set.
    max_subset_states:
        Optional bound on the non-empty macrostates each comparison's
        subset search visits on either side (each comparison may be
        exponential; see Theorem 4.1(b)).

    Raises
    ------
    InvalidProcessError
        If the alphabet holds the reserved EPSILON marker.

    Notes
    -----
    The rounds of :func:`approx_chain` run on the weak moves of one
    interned :class:`~repro.core.weak.WeakKernel` (no saturated dict FSP is
    materialised).  Refinement stops at the first round that splits no
    block, so at most ``|K|`` rounds run whatever ``k`` is.
    """
    require_observable(fsp, "approx_k")
    kernel = WeakKernel.from_fsp(fsp)
    blocks = approx_blocks(kernel.lts, kernel.closures(), fsp.alphabet, k, max_subset_states)
    return partition_of_blocks(blocks, kernel.lts.state_names)


def approx_chain(
    arcs: LTS,
    closure: list[int],
    alphabet: Iterable[str],
    max_subset_states: int | None,
) -> Iterator[list[int]]:
    """The block of every state of ``arcs`` under ``approx_0``, ``approx_1``, ...

    ``arcs`` and ``closure`` are what a
    :class:`~repro.equivalence.language.MacroMoves` table walks.  Level 0
    groups states by extension set, and each further level costs one round
    of :func:`_refine_by_block_languages`.  ``approx_{k+1}`` depends on
    ``approx_k`` alone, so the chain ends after the first round that splits
    no block: every later level equals the last one yielded, which is
    ``approx`` itself.
    """
    blocks, count = arcs.extension_block_ids()
    order = sorted(range(arcs.n), key=arcs.state_names.__getitem__)
    while True:
        yield blocks
        refined, refined_count = _refine_by_block_languages(
            arcs, closure, alphabet, blocks, order, max_subset_states
        )
        if refined_count == count:
            return
        blocks, count = refined, refined_count


def approx_blocks(
    arcs: LTS,
    closure: list[int],
    alphabet: Iterable[str],
    k: int,
    max_subset_states: int | None,
) -> list[int]:
    """The ``approx_k`` block of every state of ``arcs`` (see :func:`approx_chain`)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    for level, blocks in enumerate(approx_chain(arcs, closure, alphabet, max_subset_states)):
        if level == k:
            break
    return blocks


def _refine_by_block_languages(
    arcs: LTS,
    closure: list[int],
    alphabet: Iterable[str],
    blocks: list[int],
    order: list[int],
    max_subset_states: int | None,
) -> tuple[list[int], int]:
    """One ``approx_k -> approx_{k+1}`` refinement round via per-block languages.

    Two states of a block stay together when no string leads them to
    derivative macrostates meeting different ``blocks``: one subset search
    per comparison, all over one macrostate table.  States are taken in
    ``order`` (by name), each compared with the first member of every group
    its block has formed so far, so the comparisons a round makes -- and so
    where a bound stops it -- do not depend on how the states are numbered.
    Returns the new block of every state and the number of blocks.
    """
    block_bit = [1 << block for block in blocks]

    def blocks_met(bits: int) -> int:
        met = 0
        for state in bits_to_indices(bits):
            met |= block_bit[state]
        return met

    moves = MacroMoves(arcs, closure, alphabet, blocks_met)
    groups: dict[int, list[int]] = {}  # per block, the first member of each new group
    refined = [0] * arcs.n
    count = 0
    for state in order:
        firsts = groups.setdefault(blocks[state], [])
        for first in firsts:
            starts = moves.start(state), moves.start(first)
            if subset_search(moves, moves, starts, max_subset_states) is None:
                refined[state] = refined[first]
                break
        else:
            firsts.append(state)
            refined[state] = count
            count += 1
    return refined, count


def k_observational_equivalent(
    fsp: FSP, first: str, second: str, k: int, max_subset_states: int | None = None
) -> bool:
    """Decide ``first approx_k second`` for two states of the same FSP."""
    return k_observational_partition(fsp, k, max_subset_states).same_block(first, second)


def k_observational_equivalent_processes(
    first: FSP, second: FSP, k: int, max_subset_states: int | None = None
) -> bool:
    """Decide ``approx_k`` for the start states of two FSPs.

    A thin shim over the engine facade (:mod:`repro.engine`): the per-block
    language comparisons run on the cached observational quotients
    (observational equivalence refines every ``approx_k``), and
    ``max_subset_states`` bounds those comparisons.
    """
    from repro.engine import default_engine

    return default_engine().check(
        first, second, "k-observational", witness=False, k=k, max_subset_states=max_subset_states
    ).equivalent


def separation_level(fsp: FSP, first: str, second: str, max_level: int | None = None) -> int | None:
    """The smallest ``k`` with ``not (first approx_k second)``, or None if none exists.

    The ``approx_k`` chain is refined one round at a time, up to
    ``max_level`` when given, and the first level whose blocks separate the
    two states is returned.  The chain ends at its fixed point, which is
    ``approx``: by Proposition 2.2.1(c) the states are observationally
    equivalent iff no level separates them.  The level is a useful "how
    different are they" metric surfaced by the examples.
    """
    require_observable(fsp, "approx_k")
    kernel = WeakKernel.from_fsp(fsp)
    left, right = kernel.state_index(first), kernel.state_index(second)
    chain = approx_chain(kernel.lts, kernel.closures(), fsp.alphabet, None)
    for level, blocks in enumerate(chain):
        if blocks[left] != blocks[right]:
            return level
        if level == max_level:
            break
    return None
