"""The naive method of Lemma 3.2 for generalized partitioning.

Starting from the initial partition, every block is repeatedly split so that
two elements stay together only when, for every function, their images hit the
same set of blocks.  Each global pass costs ``O(n + m)`` (we compute one
signature per element and group by it), and at most ``n`` passes are needed
because every pass that changes anything increases the number of blocks.  The
total is the ``O(nm)`` bound of Lemma 3.2.

The pass structure is unchanged from the paper; the implementation runs on
the integer-indexed :class:`~repro.core.lts.LTS` kernel, so a signature is a
frozenset of packed ``(action, block)`` integers read straight off the CSR
arrays rather than a set of string tuples.
"""

from __future__ import annotations

from repro.core.lts import LTS
from repro.partition.generalized import GeneralizedPartitioningInstance
from repro.partition.refinable import RefinablePartition

#: Shift packing an action id and a block id into one signature integer.
#: Block ids are bounded by ``2n`` which is far below ``2**40``.
_ACTION_SHIFT = 40


def naive_refine_lts(lts: LTS, block_of: list[int], num_blocks: int) -> RefinablePartition:
    """Run the naive method on the integer kernel; returns the refined partition."""
    part, _passes = _refine_counting_passes(lts, block_of, num_blocks)
    return part


def _refine_counting_passes(
    lts: LTS, block_of: list[int], num_blocks: int
) -> tuple[RefinablePartition, int]:
    part = RefinablePartition(block_of, num_blocks)
    n = lts.n
    offsets = lts.fwd_offsets
    arc_actions = lts.fwd_actions.tolist()
    arc_targets = lts.fwd_targets.tolist()
    passes = 0
    changed = True
    empty = frozenset()
    while changed:
        passes += 1
        changed = False
        blk = part.blk
        # Signature of an element: for every function, the set of blocks its
        # image intersects.  Two elements may share a block in the refined
        # partition only if their signatures (and current blocks) agree.
        sigs: list[frozenset[int]] = [empty] * n
        for s in range(n):
            lo, hi = offsets[s], offsets[s + 1]
            if lo != hi:
                sigs[s] = frozenset(
                    (arc_actions[i] << _ACTION_SHIFT) | blk[arc_targets[i]]
                    for i in range(lo, hi)
                )
        elems = part.elems
        for b in range(part.num_blocks()):  # new blocks this pass are uniform
            f, e = part.first[b], part.end[b]
            if e - f <= 1:
                continue
            groups: dict[frozenset[int], list[int]] = {}
            for i in range(f, e):
                s = elems[i]
                groups.setdefault(sigs[s], []).append(s)
            if len(groups) <= 1:
                continue
            changed = True
            buckets = iter(groups.values())
            next(buckets)  # the first group stays in the existing block
            for bucket in buckets:
                for s in bucket:
                    part.mark(s)
                part.split_marked(b)
    return part, passes


def naive_refinement_passes(instance: GeneralizedPartitioningInstance) -> int:
    """The number of global passes the naive method performs on this instance.

    Lemma 3.2 bounds it by ``n``: every pass that changes anything adds a
    block.
    """
    lts, block_of, num_blocks = instance.kernel
    _part, passes = _refine_counting_passes(lts, block_of, num_blocks)
    return passes
