"""Vectorized partition refinement: whole-array rounds on CSR edge arrays.

The pure-Python solvers (:mod:`repro.partition.kanellakis_smolka`,
:mod:`repro.partition.paige_tarjan`) spend a handful of list operations per
arc; at ``n ~ 10^6`` states the interpreter constant dominates everything the
paper's asymptotics promise.  This module computes the same coarsest stable
refinement with numpy array passes:

* Each **round** recomputes, for every state, the *splitter signature*
  ``{(action, block(target)) | state --action--> target}`` of the current
  partition.  The per-state sets are canonicalised in bulk: one
  ``np.lexsort`` over the ``(source, action, block[target])`` edge columns,
  a shift-compare dedup (the vectorized analogue of the per-dict splitter
  counting the Python solvers do arc by arc), and an ``np.bincount`` over
  sources to slice the flat pair list back into per-state rows.
* States are regrouped by ``(current block, signature)`` with iterated
  pair-ranking (lexsort + cumulative sum of change flags), i.e. a radix
  pass per signature column -- ``O((n + m) log)`` whole-array work per
  round, no Python-level loop over states or arcs anywhere.
* Rounds repeat until the block count stops growing.  Each round is a full
  functional step ``pi -> sig(pi)``, so after round ``r`` two states share
  a block iff no splitter sequence of length ``<= r`` separates them: the
  fixpoint is exactly the coarsest stable refinement the sequential solvers
  compute (the paper's Section 3 characterisation), reached after
  *refinement depth* many rounds.

The trade is constant factor against round count: deep, chain-like families
(``comb``, ``duplicated_chain``) have ``Theta(n)`` refinement depth and stay
the worklist solvers' home turf, while wide, shallow families -- shift
registers, random deterministic processes, anything whose depth is
``O(log n)`` -- refine orders of magnitude faster here (the ``vector`` and
``scale`` layers of ``BENCH_partition.json`` record the measured gap, gated
in CI).  The Python solvers remain the oracles the property tests compare
against, the same pattern ``saturate_reference`` established for the weak
engine.

:func:`vector_refine_lts`, the kernel behind ``refine_lts``, therefore runs
at most :func:`round_budget` rounds -- ``log2 n`` plus
:data:`ROUND_BUDGET_SLACK` -- and then hands the partition it reached to the
Kanellakis-Smolka solver as its initial partition.  Every round yields a
partition that refines the initial one and is refined by the answer, so the
hand-over is exact: a deep input costs a bounded number of whole-array
rounds plus one worklist pass, never ``Theta(n)`` rounds.
:func:`vector_refine_csr` and :func:`vector_refine_arrays`, which the
``10^5``--``10^6`` state tiers use, stay unbounded.

Because a round only touches the edge arrays through gathers
(``block[targets]``) and sorts, the kernel runs unchanged on
:class:`~repro.utils.matrices.MmapCSR` memory-mapped arrays: the working
set is the ``O(n)`` block/signature arrays plus the round's temporaries,
while the edges live on disk -- the out-of-core posture the ROADMAP's
``10^6``--``10^7`` state tier needs.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.lts import LTS
from repro.partition.kanellakis_smolka import kanellakis_smolka_refine_lts
from repro.utils.matrices import CSRArrays, require_numpy

__all__ = [
    "round_budget",
    "vector_refine_arrays",
    "vector_refine_csr",
    "vector_refine_lts",
]


#: Packed ``primary * span + secondary`` keys must stay below this bound for
#: the single-key fast path of :func:`_pair_rank`; beyond it the two-key
#: lexsort route is used instead (int64 headroom, overflow-proof).
_PACK_LIMIT = 1 << 62

#: Rounds :func:`vector_refine_lts` runs beyond ``log2 n`` before it hands
#: over.  Shift registers and random deterministic processes (and their
#: disjoint unions) stabilise within ``log2 n`` rounds, plus the round that
#: confirms the fixpoint; combs need ``Theta(n)``.  Fitted on the
#: ``defaults`` bench layer (``benchmarks/cells.py``).
ROUND_BUDGET_SLACK = 2


def round_budget(n: int) -> int:
    """The whole-array rounds :func:`vector_refine_lts` runs on ``n`` states."""
    return n.bit_length() + ROUND_BUDGET_SLACK


def _pair_rank(np, primary, secondary, pmax: int | None = None, smax: int | None = None):
    """Dense ids for the distinct ``(primary, secondary)`` pairs (one radix pass).

    Equivalent to ``np.unique(column_stack, axis=0, return_inverse=True)``
    without the void-view machinery.  When the caller knows (upper bounds on)
    the maxima, pairs are packed into one int64 key and ranked with a single
    ``argsort``; otherwise -- or when packing would overflow -- a two-key
    ``lexsort`` does the same work at twice the sorting cost.  ``secondary``
    may contain the ``-1`` sentinel (absent column), hence the ``+ 1`` shift.
    """
    if pmax is None:
        pmax = int(primary.max()) if len(primary) else 0
    if smax is None:
        smax = int(secondary.max()) if len(secondary) else 0
    span = smax + 2
    if (pmax + 1) * span < _PACK_LIMIT:
        key = primary * span + (secondary + 1)
        order = np.argsort(key, kind="stable")
        k_sorted = key[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = k_sorted[1:] != k_sorted[:-1]
    else:  # pragma: no cover - needs > 2^31 states to reach
        order = np.lexsort((secondary, primary))
        p_sorted = primary[order]
        s_sorted = secondary[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = (p_sorted[1:] != p_sorted[:-1]) | (s_sorted[1:] != s_sorted[:-1])
    ids = np.cumsum(fresh) - 1
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = ids
    return inverse


def _refine_rounds(sources, actions, targets, block_of, n: int, max_rounds: int | None):
    """At most ``max_rounds`` signature rounds (``None``: until stable).

    Returns the assignment reached and whether it is stable.
    """
    np = require_numpy()
    block = np.asarray(block_of, dtype=np.int64).copy()
    if n == 0 or len(sources) == 0:
        return block, True
    num_blocks = int(block.max()) + 1
    m = len(sources)
    # Pre-sort the arc columns by source once; the per-round sort then only
    # has to order the (bounded) pair keys within each source run.
    base_order = np.argsort(sources, kind="stable")
    src = sources[base_order]
    act = actions[base_order]
    dst = targets[base_order]
    del base_order
    amax = int(act.max())

    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        # Splitter signature pairs (action, block(target)), deduped per state.
        # Fast path: pack (source, action, target-block) into one int64 key
        # and sort once; the lexsort route covers sizes where packing would
        # overflow.
        pair_span = (amax + 1) * num_blocks
        if n * pair_span < _PACK_LIMIT:
            pair_key = act * num_blocks + block[dst]
            order = np.argsort(src * pair_span + pair_key, kind="stable")
            s_sorted = src[order]
            p_sorted = pair_key[order]
            pair_bound = pair_span - 1
        else:  # pragma: no cover - needs > 2^31 states to reach
            pair_key = _pair_rank(np, act, block[dst])
            order = np.lexsort((pair_key, src))
            s_sorted = src[order]
            p_sorted = pair_key[order]
            pair_bound = int(p_sorted.max())
        keep = np.ones(m, dtype=bool)
        keep[1:] = (s_sorted[1:] != s_sorted[:-1]) | (p_sorted[1:] != p_sorted[:-1])
        s_unique = s_sorted[keep]
        p_unique = p_sorted[keep]
        # Slice the flat pair list into fixed-width per-state rows: state s
        # owns counts[s] pairs starting at starts[s] (np.bincount is the
        # vectorized splitter count).
        counts = np.bincount(s_unique, minlength=n)
        width = int(counts.max()) if len(counts) else 0
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        position = np.arange(len(s_unique), dtype=np.int64) - starts[s_unique]
        # Regroup by (old block, signature row), one radix pass per column.
        rank = block
        column = np.full(n, -1, dtype=np.int64)
        for col in range(width):
            column[:] = -1
            in_col = position == col
            column[s_unique[in_col]] = p_unique[in_col]
            rank = _pair_rank(np, rank, column, pmax=n, smax=pair_bound)
        new_count = int(rank.max()) + 1
        if new_count == num_blocks:
            return block, True
        num_blocks = new_count
        block = rank
    return block, False


def vector_refine_arrays(sources, actions, targets, block_of, n: int):
    """Coarsest stable refinement over flat edge arrays (the inner kernel).

    Parameters are ``int64`` ndarrays: per-arc ``sources`` / ``actions`` /
    ``targets`` (any order, duplicates tolerated) and the initial ``block_of``
    assignment with block ids ``0..B-1``.  Returns the refined assignment as
    an ``int64`` array whose ids are dense but otherwise arbitrary -- compare
    partitions up to renumbering, or via :func:`repro.partition.partition.Partition`.
    Rounds repeat until the partition is stable, however many that takes.
    """
    return _refine_rounds(sources, actions, targets, block_of, n, None)[0]


def vector_refine_csr(csr: CSRArrays, block_of, num_blocks: int | None = None):
    """Run the vector kernel on a :class:`~repro.utils.matrices.CSRArrays`.

    Accepts in-memory and memory-mapped (:class:`~repro.utils.matrices.MmapCSR`)
    stores alike; ``num_blocks`` is accepted for interface symmetry with the
    Python solvers and not needed by the algorithm.  Returns the refined
    ``block_of`` as an ``int64`` array.
    """
    require_numpy()
    return vector_refine_arrays(csr.sources(), csr.actions, csr.targets, block_of, csr.n)


def vector_refine_lts(lts: LTS, block_of: Sequence[int], num_blocks: int):
    """Drop-in vectorized counterpart of ``kanellakis_smolka_refine_lts``.

    Same inputs as the Python ``*_refine_lts`` solvers (an interned
    :class:`~repro.core.lts.LTS` plus the initial block assignment); the
    partition it computes is identical up to block renumbering.  After
    :func:`round_budget` rounds without a fixpoint, the partition reached so
    far is handed to ``kanellakis_smolka_refine_lts`` as its initial
    partition.  Returns the refined ``block_of`` as an ``int64`` array.
    """
    np = require_numpy()
    csr = CSRArrays.from_lts(lts)
    block, stable = _refine_rounds(
        csr.sources(), csr.actions, csr.targets, block_of, csr.n, round_budget(lts.n)
    )
    if stable:
        return block
    handed = kanellakis_smolka_refine_lts(lts, block.tolist(), int(block.max()) + 1)
    return np.asarray(handed.blk, dtype=np.int64)
