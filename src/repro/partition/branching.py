"""Coarsest branching bisimulation: the pre-quotient of the weak pipeline.

Theorem 4.1(a) decides observational equivalence by saturating the whole
process to ``P_hat`` and refining that strongly.  On tau-rich processes the
saturated relation is quadratic in the tau-closures while the weak quotient
is a small fraction of the input, so nearly all of that work is thrown away.
Branching bisimilarity (van Glabbeek and Weijland), with extension sets
compared at every state, sits below every weak notion the engine decides:

    branching  ⊆  observational (``approx``)  ⊆  failure, every ``approx_k``

Each state is branching bisimilar to its block in the quotient, so the
observational partition of a process is the observational partition of its
branching quotient lifted back onto the original states.  Saturation then
runs only on the quotient.

The pass is signature refinement in the style of Blom and Orzan, on the CSR
arrays of :class:`~repro.core.lts.LTS`:

1. the initial partition groups states by extension set;
2. tau-SCCs are collapsed with :func:`repro.core.weak.tau_scc`, but only over
   tau-arcs between states with the same extension set -- every state of
   such a cycle is branching bisimilar to the others, while a tau-cycle that
   crosses extension sets contains inequivalent states;
3. blocks split by signature until stable.  The signature of a component is
   ``{(a, B(t)) | c -a-> t not inert} ∪ ⋃ {sig(t) | c -tau-> t inert}``,
   where a tau-arc is *inert* when it stays inside one block.  After the
   collapse every inert arc runs from a higher component number to a lower
   one (:func:`~repro.core.weak.tau_scc` numbers children first), so one
   ascending sweep computes all signatures.  A round recomputes only the
   components whose signature can have changed: the ones that moved, their
   predecessors, and everything that reaches those through inert tau-arcs.

A move is matched only through tau-steps that stay inside the block, which
is the stuttering condition for processes whose states carry labels: a
tau-path that passes through another extension set does not count.

Example
-------

In ``tau_ladder(3)`` every state but the final deadlock can still do ``a``
after some internal moves, and the tau-steps between them are inert:

>>> from repro.core.lts import LTS
>>> from repro.generators.families import tau_ladder
>>> from repro.partition.branching import branching_quotient
>>> lts = LTS.from_fsp(tau_ladder(3))
>>> quotient, block_of = branching_quotient(lts)
>>> lts.n, quotient.n
(7, 2)
>>> sorted(quotient.state_names[block] for block in set(block_of))
['u0', 'u3']
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.lts import LTS
from repro.core.weak import tau_action_index, tau_scc, tau_successor_lists


def branching_quotient(lts: LTS) -> tuple[LTS, list[int]]:
    """The quotient of ``lts`` by its coarsest branching bisimulation.

    Returns ``(quotient, block_of)``: state ``s`` of ``lts`` belongs to
    state ``block_of[s]`` of ``quotient``.  A quotient state is named after
    the lowest-numbered state of its block and carries that block's
    extension set; its arcs are the images of the input's arcs, less the
    inert tau self-loops.  Actions, observable alphabet and variables are
    those of the input, so the quotient saturates exactly as the input does.
    When no two states merge, the input itself is returned with the
    identity block map.
    """
    n = lts.n
    tau = tau_action_index(lts)
    ext_of, num_ext = lts.extension_block_ids()
    offsets, arc_actions, arc_targets = lts.fwd_offsets, lts.fwd_actions, lts.fwd_targets

    # Tau-SCCs over the tau-arcs that stay inside one extension set.
    local_tau = [
        [t for t in targets if ext_of[t] == ext_of[s]] if targets else targets
        for s, targets in enumerate(tau_successor_lists(lts))
    ]
    if any(local_tau):
        scc_of, sccs = tau_scc(lts, local_tau)
    else:
        scc_of, sccs = list(range(n)), [[s] for s in range(n)]

    # The condensed graph: observable arcs, tau-arcs and predecessors per component.
    num = len(sccs)
    arcs: Iterable[tuple[int, int, int]] = (
        (scc_of[s], arc_actions[i], scc_of[arc_targets[i]])
        for s in range(n)
        for i in range(offsets[s], offsets[s + 1])
    )
    if num < n:
        arcs = set(arcs)  # a collapsed component repeats its members' arcs
    observable: list[list[tuple[int, int]]] = [[] for _ in range(num)]
    tau_succ: list[list[int]] = [[] for _ in range(num)]
    preds: list[list[int]] = [[] for _ in range(num)]
    tau_preds: list[list[int]] = [[] for _ in range(num)]
    for c, action, d in arcs:
        if action == tau:
            if c == d:
                continue
            tau_succ[c].append(d)
            tau_preds[d].append(c)
        else:
            observable[c].append((action, d))
        preds[d].append(c)

    block = [ext_of[component[0]] for component in sccs]
    members: list[set[int]] = [set() for _ in range(num_ext)]
    for c, b in enumerate(block):
        members[b].add(c)
    # After every round each member of block b has signature ref[b].
    ref: list[frozenset[int] | None] = [None] * num_ext
    sigs: list[frozenset[int]] = [frozenset()] * num
    width = lts.num_actions
    dirty: set[int] | range = range(num)
    while dirty:
        # Signatures children-first; the ones that differ from their block's
        # reference signature are grouped by block and signature.
        changed: dict[int, dict[frozenset[int], list[int]]] = {}
        for c in sorted(dirty):
            own = block[c]
            sig = {block[d] * width + a for a, d in observable[c]}
            for d in tau_succ[c]:
                other = block[d]
                if other == own:
                    sig |= sigs[d]
                else:
                    sig.add(other * width + tau)
            sigs[c] = frozen = frozenset(sig)
            if frozen != ref[own]:
                changed.setdefault(own, {}).setdefault(frozen, []).append(c)

        moved: list[int] = []
        for b, by_sig in changed.items():
            split = list(by_sig.items())
            sizes = [len(group) for _, group in split]
            unchanged = len(members[b]) - sum(sizes)
            largest = sizes.index(max(sizes))
            if sizes[largest] > unchanged:
                # The largest group keeps the block; the unchanged members move.
                old = ref[b]
                ref[b], kept = split.pop(largest)
                if unchanged:
                    split.append((old, members[b].difference(kept, *(g for _, g in split))))
            for sig, group in split:
                new = len(ref)
                ref.append(sig)
                members.append(set(group))
                members[b].difference_update(group)
                for c in group:
                    block[c] = new
                moved.extend(group)

        # Whatever moved, its predecessors, and what reaches those inertly.
        dirty = set(moved)
        for c in moved:
            dirty.update(preds[c])
        stack = list(dirty)
        while stack:
            d = stack.pop()
            for c in tau_preds[d]:
                if c not in dirty and block[c] == block[d]:
                    dirty.add(c)
                    stack.append(c)

    if len(ref) == n:
        # Nothing merged: the input is its own quotient.
        return lts, list(range(n))
    block_of = [block[scc_of[s]] for s in range(n)]
    representative = [-1] * len(ref)
    for s in range(n):
        if representative[block_of[s]] < 0:
            representative[block_of[s]] = s
    edges = {(block[c], a, block[d]) for c in range(num) for a, d in observable[c]}
    edges.update(
        (block[c], tau, block[d]) for c in range(num) for d in tau_succ[c] if block[c] != block[d]
    )
    quotient = LTS(
        [lts.state_names[s] for s in representative],
        lts.action_names,
        edges,
        start=block_of[lts.start] if n else 0,
        ext_sets=None if lts.ext_sets is None else [lts.ext_sets[s] for s in representative],
        variables=lts.variables,
        observable_alphabet=lts.observable_alphabet,
    )
    return quotient, block_of
