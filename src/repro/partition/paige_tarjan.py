"""The Paige-Tarjan relational coarsest partition algorithm.

Theorem 3.1 of the paper obtains its ``O(m log n + n)`` bound for strong
equivalence by plugging in the algorithm of Paige & Tarjan (1987), which
solves exactly the generalized partitioning problem (they call it *relational
coarsest partition*).  The algorithm maintains two partitions:

* ``P`` -- the current fine partition (which refines the answer from above),
* ``X`` -- a coarser partition, each of whose blocks is a union of ``P``-blocks,

with the invariant that ``P`` is *stable* with respect to every block of
``X``.  While some ``X``-block ``S`` is *compound* (contains at least two
``P``-blocks), the algorithm picks a ``P``-block ``B`` inside ``S`` of at most
half its size, replaces ``S`` by ``B`` and ``S \\ B`` in ``X``, and restores
stability by the famous *three-way split*: each ``P``-block is split by
"has an arc into ``B``" and then by "has an arc into ``S \\ B``", using
per-element arc counts so that the second test needs no scan of ``S \\ B``.
Processing a splitter costs time proportional to the arcs into ``B``, and each
element's block can play the role of ``B`` only ``O(log n)`` times, giving
``O(m log n + n)``.

The implementation runs on the integer-indexed :class:`~repro.core.lts.LTS`
kernel: splitter scans walk the cached reverse CSR index, counts are kept in
a dict keyed by a single packed integer ``(x_block * k + action) * n + state``
(one hash per update instead of a tuple allocation), and the blocks live in a
:class:`~repro.partition.refinable.RefinablePartition`.
"""

from __future__ import annotations

from repro.core.lts import LTS
from repro.partition.refinable import RefinablePartition


def paige_tarjan_refine_lts(lts: LTS, block_of: list[int], num_blocks: int) -> RefinablePartition:
    """Run the Paige-Tarjan algorithm on the integer kernel."""
    n = lts.n
    num_actions = lts.num_actions
    if n == 0:
        return RefinablePartition(block_of, num_blocks)
    offsets = lts.fwd_offsets
    arc_actions = lts.fwd_actions.tolist()
    rev_lists = lts.reverse_lists()

    # ------------------------------------------------------------------
    # Preprocessing: make P stable with respect to the single X-block U.
    # For every function, elements with a non-empty image must be separated
    # from elements with an empty image inside every initial block, so group
    # states by (initial block, bitmask of actions with outgoing arcs) and
    # rebuild the partition over those finer ids.  Along the way record the
    # per-(state, action) out-degrees that seed the counts against U.
    # ------------------------------------------------------------------
    out_count = [0] * (n * num_actions)
    for s in range(n):
        base = s * num_actions
        for i in range(offsets[s], offsets[s + 1]):
            out_count[base + arc_actions[i]] += 1
    fine_ids: dict[tuple[int, int], int] = {}
    fine_of = [0] * n
    for s in range(n):
        mask = 0
        base = s * num_actions
        for action in range(num_actions):
            if out_count[base + action]:
                mask |= 1 << action
        fine_of[s] = fine_ids.setdefault((block_of[s], mask), len(fine_ids))
    part = RefinablePartition(fine_of, len(fine_ids))

    # ------------------------------------------------------------------
    # X-partition bookkeeping.  X-blocks are identified by integers; each
    # X-block is a set of P-block ids, and every P-block belongs to exactly
    # one X-block.  counts[(x * k + action) * n + s] = |f_action(s) ∩ X-block|.
    # ------------------------------------------------------------------
    x_of = [0] * part.num_blocks()
    x_members: list[set[int]] = [set(range(part.num_blocks()))]
    compound = {0} if part.num_blocks() > 1 else set()

    counts: dict[int, int] = {}
    for s in range(n):
        base = s * num_actions
        for action in range(num_actions):
            c = out_count[base + action]
            if c:
                counts[action * n + s] = c  # x = 0

    blk = part.blk
    marked = part.marked
    first = part.first
    end = part.end

    def register_split(parent: int, new_block: int) -> None:
        """A P-block split: the new block joins the parent's X-block."""
        x = x_of[parent]
        x_members[x].add(new_block)
        x_of.append(x)
        if len(x_members[x]) > 1:
            compound.add(x)

    # ------------------------------------------------------------------
    # Main refinement loop.
    # ------------------------------------------------------------------
    while compound:
        s_x = compound.pop()
        members = x_members[s_x]
        if len(members) <= 1:
            continue
        # Choose a P-block B inside S of size at most |S| / 2.
        b_block = min(members, key=lambda pid: end[pid] - first[pid])
        splitter = part.block_elems(b_block)

        # Move B out of S into its own X-block.
        members.discard(b_block)
        b_x = len(x_members)
        x_members.append({b_block})
        x_of[b_block] = b_x
        if len(members) > 1:
            compound.add(s_x)

        # Per action: count arcs into the new X-block B per source (walking
        # only the reverse-index slices of B's members), update the counts
        # against the remainder S' = S \ B, and three-way split.  The split
        # for one action happens before the counts for the next are read,
        # which is safe because counts are per-element, not per-block.
        for action in range(num_actions):
            base = action * n
            per_action: dict[int, int] = {}
            get_count = per_action.get
            for target in splitter:
                for source in rev_lists[base + target]:
                    per_action[source] = get_count(source, 0) + 1
            if not per_action:
                continue
            base_b = (b_x * num_actions + action) * n
            base_s = (s_x * num_actions + action) * n
            for source, count_into_b in per_action.items():
                counts[base_b + source] = count_into_b
                remaining = counts.get(base_s + source, 0) - count_into_b
                if remaining:
                    counts[base_s + source] = remaining
                else:
                    counts.pop(base_s + source, None)

            # First split: elements with an arc into B versus the rest.
            hit_blocks: list[int] = []
            for source in per_action:
                b = blk[source]
                if marked[b] == 0:
                    hit_blocks.append(b)
                part.mark(source)
            inside_blocks: list[int] = []
            for b in hit_blocks:
                if marked[b] == end[b] - first[b]:
                    marked[b] = 0  # wholly inside the preimage: no split
                    inside_blocks.append(b)
                    continue
                new_block = part.split_marked(b)
                register_split(b, new_block)
                inside_blocks.append(new_block)
            # Second split: among elements with an arc into B, separate those
            # with no remaining arc into S' (count into S' is zero).
            for b in inside_blocks:
                for source in part.block_elems(b):  # snapshot: mark() reorders
                    if counts.get(base_s + source, 0) == 0:
                        part.mark(source)
                m = marked[b]
                if m == 0 or m == end[b] - first[b]:
                    marked[b] = 0
                    continue
                new_block = part.split_marked(b)
                register_split(b, new_block)

    return part
