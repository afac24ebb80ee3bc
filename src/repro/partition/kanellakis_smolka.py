"""Splitter-queue partition refinement in the style of Kanellakis & Smolka.

Section 3 of the paper describes (and Kanellakis & Smolka 1983 / Smolka 1984
develop in full) a divide-and-conquer refinement that generalises Hopcroft's
DFA-minimisation algorithm to the relational setting: instead of re-examining
the whole partition after every change (the naive method), only blocks with an
arc into a *splitter* block can possibly split, so the algorithm keeps a
worklist of splitters and processes them one at a time.

The solver runs on the integer-indexed :class:`~repro.core.lts.LTS` kernel:
a splitter scan walks the cached per-``(action, target)`` reverse index, and
marking/splitting the touched blocks is O(1) per predecessor in the
:class:`~repro.partition.refinable.RefinablePartition` (the mark is inlined
in the scan loop, so the per-arc cost is a handful of list operations).

Worklist policy:

* Pending splitters are processed **smallest first** (a heap keyed by the
  block's size when it was enqueued; stale priorities are harmless because
  processing order never affects the result, only the amount of rework).
  Scanning the arcs into a splitter costs time proportional to the
  splitter's in-degree, so draining small blocks first keeps the repeatedly
  re-enqueued large remainder blocks from being rescanned while they are
  still shrinking.
* The smaller-half rule is applied exactly where it is sound.  When every
  function is *deterministic* (fanout at most one -- the Hopcroft special
  case the paper generalises), a block stable with respect to a splitter
  ``S`` and to one half ``B`` of a split of ``S`` is automatically stable
  with respect to ``S \\ B``, so only the smaller half of each split block
  is re-enqueued, giving the genuine ``O(k n log n)`` bound.  Otherwise the
  nonemptiness predicate does not determine the complement (precisely the
  gap Paige & Tarjan's three-way splitting closes), so both halves are
  conservatively re-enqueued; the worst case then matches the naive bound,
  but the splitter-queue structure keeps it close to Paige-Tarjan in
  practice -- see ``benchmarks/run_all.py`` for the measured trajectory.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.core.lts import LTS
from repro.partition.refinable import RefinablePartition


def kanellakis_smolka_refine_lts(
    lts: LTS, block_of: list[int], num_blocks: int
) -> RefinablePartition:
    """Run splitter-queue refinement on the integer kernel."""
    part = RefinablePartition(block_of, num_blocks)
    n = lts.n
    if n == 0:
        return part
    rev_lists = lts.reverse_lists()
    num_actions = lts.num_actions
    smaller_half_only = lts.is_deterministic()

    elems = part.elems
    loc = part.loc
    blk = part.blk
    marked = part.marked
    first = part.first
    end = part.end

    pending = [(end[b] - first[b], b) for b in range(num_blocks)]
    heapify(pending)
    in_pending = [True] * num_blocks

    while pending:
        _, splitter_block = heappop(pending)
        if not in_pending[splitter_block]:
            continue  # stale heap entry: the block was already processed
        in_pending[splitter_block] = False
        splitter = elems[first[splitter_block] : end[splitter_block]]  # snapshot

        for action in range(num_actions):
            base = action * n
            # Mark every element with an arc (under this action) into the
            # splitter.  Blocks entirely inside or outside this preimage are
            # stable with respect to the splitter; mixed blocks must split.
            # The mark is inlined (see RefinablePartition.mark) -- this loop
            # runs once per arc into the splitter and dominates the runtime.
            touched: list[int] = []
            for target in splitter:
                for s in rev_lists[base + target]:
                    b = blk[s]
                    pos = loc[s]
                    boundary = first[b] + marked[b]
                    if pos >= boundary:
                        if boundary == first[b]:
                            touched.append(b)
                        other = elems[boundary]
                        elems[pos] = other
                        loc[other] = pos
                        elems[boundary] = s
                        loc[s] = boundary
                        marked[b] = boundary + 1 - first[b]
            for b in touched:
                m = marked[b]
                size = end[b] - first[b]
                if m == size:
                    marked[b] = 0  # wholly inside the preimage: stable
                    continue
                new_block = part.split_marked(b)
                in_pending.append(False)
                if in_pending[b]:
                    # The parent was still awaiting processing: both halves
                    # inherit its pending status.
                    heappush(pending, (m, new_block))
                    in_pending[new_block] = True
                elif smaller_half_only:
                    smaller = new_block if m <= size - m else b
                    heappush(pending, (end[smaller] - first[smaller], smaller))
                    in_pending[smaller] = True
                else:
                    heappush(pending, (size - m, b))
                    heappush(pending, (m, new_block))
                    in_pending[b] = True
                    in_pending[new_block] = True
    return part
