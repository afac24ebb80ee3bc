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
among all its searches.  The subset construction is exponential in the
worst case -- which is the behaviour the PSPACE-completeness result says
cannot be avoided for fixed ``k`` (contrast with the polynomial limit,
experiment E8).
"""

from __future__ import annotations

from repro.core.fsp import EPSILON, FSP
from repro.core.weak import WeakKernel, bits_to_indices
from repro.equivalence.language import MacroMoves, require_observable, subset_search
from repro.partition.partition import Partition


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
    The refinement step compares each state of a block with the
    representative of each group formed so far, by one subset search over
    the weak moves of one interned :class:`~repro.core.weak.WeakKernel`
    (no saturated dict FSP is materialised) whose macrostates observe the
    current blocks they meet.  Refinement stops at the first round that
    splits no block, so at most ``|K|`` rounds run whatever ``k`` is.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    require_observable(fsp, "approx_k")
    kernel = WeakKernel.from_fsp(fsp)
    partition = Partition.from_key(fsp.states, key=fsp.extension)
    for _ in range(k):
        refined = _refine_by_block_languages(fsp, kernel, partition, max_subset_states)
        if len(refined) == len(partition):
            break  # approx_{j+1} depends on approx_j alone: a fixed point
        partition = refined
    return partition


def _refine_by_block_languages(
    fsp: FSP,
    kernel: WeakKernel,
    partition: Partition,
    max_subset_states: int | None,
) -> Partition:
    """One ``approx_k -> approx_{k+1}`` refinement round via per-block languages.

    Two states of a block stay together when no string leads them to
    derivative macrostates meeting different blocks of ``partition``: one
    subset search per comparison, all over one macrostate table.
    """
    block_bit = [1 << partition.block_id_of(name) for name in kernel.lts.state_names]

    def blocks_met(bits: int) -> int:
        met = 0
        for state in bits_to_indices(bits):
            met |= block_bit[state]
        return met

    moves = MacroMoves(kernel, fsp.alphabet, blocks_met)
    new_groups: list[set[str]] = []
    for block in partition:
        groups: list[set[str]] = []
        for state in sorted(block):
            for group in groups:
                starts = moves.start(state), moves.start(next(iter(group)))
                if subset_search(moves, moves, starts, max_subset_states) is None:
                    group.add(state)
                    break
            else:
                groups.append({state})
        new_groups.extend(groups)
    return Partition(new_groups)


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

    By Proposition 2.2.1(c) the two states are observationally equivalent iff
    no such ``k`` exists; because ``approx`` equals the fixed point of the
    ``simeq`` chain, the search can stop at ``k = |K|`` (or ``max_level``).
    The level is a useful "how different are they" metric surfaced by the
    examples.
    """
    from repro.equivalence.observational import observationally_equivalent

    if observationally_equivalent(fsp, first, second):
        return None
    limit = max_level if max_level is not None else len(fsp.states) + 1
    for k in range(limit + 1):
        if not k_observational_equivalent(fsp, first, second, k):
            return k
    return None
