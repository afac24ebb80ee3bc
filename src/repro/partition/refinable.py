"""Array-based refinable partition for the integer solvers.

This is the classical "refinable partition" structure used by engineered
partition-refinement implementations (Hopcroft, Paige-Tarjan, Valmari):
the element set ``0..n-1`` lives in one permutation array, grouped so that
every block occupies a contiguous slice.  Marking an element swaps it into
the marked prefix of its block in O(1); splitting a block detaches the
marked prefix as a new block in O(marked).  No per-split set allocation,
no hashing -- exactly the constant-factor discipline the string/dict based
:class:`~repro.partition.partition.Partition` cannot offer.

The string-keyed :class:`~repro.partition.partition.Partition` remains the
*interface* type returned to callers; :func:`partition_of_blocks` converts a
block id per element (such as a finished refinement's ``blk``) back to it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.partition.partition import Partition


class RefinablePartition:
    """A partition of ``0..n-1`` supporting O(1) marking and O(k) splits.

    Blocks are numbered ``0..num_blocks-1``; new blocks created by
    :meth:`split_marked` receive fresh ids (the unmarked remainder keeps the
    parent id, mirroring the convention of
    :meth:`~repro.partition.partition.Partition.split_block`).
    """

    __slots__ = ("elems", "loc", "blk", "first", "end", "marked")

    def __init__(self, block_of: Sequence[int], num_blocks: int) -> None:
        n = len(block_of)
        counts = [0] * num_blocks
        for b in block_of:
            counts[b] += 1
        first = [0] * num_blocks
        end = [0] * num_blocks
        total = 0
        for b in range(num_blocks):
            first[b] = total
            total += counts[b]
            end[b] = total
        cursor = list(first)
        elems = [0] * n
        loc = [0] * n
        for s in range(n):
            b = block_of[s]
            slot = cursor[b]
            elems[slot] = s
            loc[s] = slot
            cursor[b] = slot + 1
        self.elems = elems  #: element ids, grouped by block
        self.loc = loc  #: position of each element in ``elems``
        self.blk = list(block_of)  #: block id of each element
        self.first = first  #: block id -> slice start in ``elems``
        self.end = end  #: block id -> slice end (exclusive)
        self.marked = [0] * num_blocks  #: block id -> number of marked elements

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def num_blocks(self) -> int:
        return len(self.first)

    def size(self, block: int) -> int:
        return self.end[block] - self.first[block]

    def block_elems(self, block: int) -> list[int]:
        """A snapshot copy of the block's members (safe to hold across splits)."""
        return self.elems[self.first[block] : self.end[block]]

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------
    def mark(self, element: int) -> None:
        """Move ``element`` into the marked prefix of its block (idempotent)."""
        b = self.blk[element]
        i = self.loc[element]
        boundary = self.first[b] + self.marked[b]
        if i >= boundary:
            elems = self.elems
            other = elems[boundary]
            elems[i] = other
            self.loc[other] = i
            elems[boundary] = element
            self.loc[element] = boundary
            self.marked[b] = boundary + 1 - self.first[b]

    def split_marked(self, block: int) -> int:
        """Detach the marked prefix of ``block`` as a new block.

        Returns the new block id, or ``-1`` (leaving the partition unchanged
        apart from clearing the marks) when the split would be trivial --
        nothing marked, or the whole block marked.
        """
        m = self.marked[block]
        self.marked[block] = 0
        f = self.first[block]
        if m == 0 or f + m == self.end[block]:
            return -1
        new_block = len(self.first)
        self.first.append(f)
        self.end.append(f + m)
        self.marked.append(0)
        self.first[block] = f + m
        blk = self.blk
        elems = self.elems
        for i in range(f, f + m):
            blk[elems[i]] = new_block
        return new_block


def partition_of_blocks(blocks: Sequence[int], names: Sequence[str]) -> Partition:
    """The string-keyed :class:`Partition` of a block id per element, in id order."""
    groups: dict[int, list[str]] = {}
    for name, block in zip(names, blocks):
        groups.setdefault(block, []).append(name)
    return Partition(groups[block] for block in sorted(groups))
