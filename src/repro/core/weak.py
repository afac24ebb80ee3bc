"""Kernel-level weak-transition engine: tau-SCC condensation + bitset saturation.

Theorem 4.1(a) reduces observational equivalence to strong partition
refinement on the saturated process ``P_hat`` whose arcs are the weak
transitions ``p =>^a q`` / ``p =>^epsilon q``.  The dict-based construction in
:mod:`repro.core.derivatives` (one BFS per state over string-keyed frozensets)
is the readable reference; this module is the engineered implementation that
runs directly on the integer-indexed CSR :class:`~repro.core.lts.LTS` kernel:

1. **tau-SCC condensation** -- an iterative Tarjan strongly-connected-
   components pass over the tau-sub-relation of the CSR arrays.  All states of
   one tau-SCC have the same tau-closure (and therefore identical weak
   transitions), so every subsequent computation is per-SCC, not per-state.
   Tarjan emits SCCs children-first, i.e. in reverse topological order of the
   condensation DAG, which is exactly the order the propagation below needs.

2. **bitset closure propagation** -- tau-closures are Python-int bitsets
   (bit ``i`` = state ``i``).  Walking the SCCs in emission order, the closure
   of an SCC is the bitset of its members OR-ed with the (already final)
   closures of its direct tau-successor SCCs: ``O(n_scc + m_tau)`` big-int
   unions, each word-parallel, instead of one BFS per state.

3. **saturated-LTS emission** -- for every observable action ``a`` the weak
   relation satisfies the same condensation recurrence
   ``W_a(C) = (U_{s in C} step_a(s)) | (U_{C -tau-> C'} W_a(C'))`` with
   ``step_a(s) = U_{s -a-> t} closure(t)``, so one more bottom-up sweep per
   action yields all weak successor sets.  The arcs are written straight into
   CSR arrays in ``(source, action, target)`` order (bit extraction yields
   ascending targets), and the result is adopted by
   :meth:`~repro.core.lts.LTS.from_csr` without ever materialising a
   dict-of-frozensets FSP.

The total work is ``O((n + m) * n / w)`` bitset words plus the size of the
saturated relation itself (which is the output and may be ``Theta(n^2)`` on
tau-dense inputs) -- compare the reference route's ``O(n * (n + m))`` hashed
set operations *plus* an ``O(m_hat)`` pass through FSP validation and
re-interning.  The ``weak`` layer of ``BENCH_partition.json`` records the
measured gap on the tau-heavy generator families.

Example
-------

On ``p -tau-> q -a-> r`` the weak layer sees through the internal move: the
tau-closure of ``p`` contains ``q``, so ``p`` has the weak ``a``-transition
``p =>^a r``, and saturation replaces the tau arc with explicit
``epsilon``-arcs (one per closure pair, reflexive included):

>>> from repro.core.fsp import from_transitions
>>> process = from_transitions(
...     [("p", "τ", "q"), ("q", "a", "r")],
...     start="p", accepting=["p", "q", "r"], alphabet={"a"},
... )
>>> from repro.core.lts import LTS
>>> from repro.core.weak import WeakKernel, saturate_lts
>>> kernel = WeakKernel.from_fsp(process)
>>> sorted(kernel.epsilon_closure("p"))
['p', 'q']
>>> sorted(kernel.weak_successors("p", "a"))
['r']
>>> saturated = saturate_lts(LTS.from_fsp(process, include_tau=True))
>>> saturated.num_transitions, sorted(saturated.action_names)
(6, ['a', 'ε'])

The same kernel answers the other weak queries by name: the observable
actions a state can weakly perform (its *weak initials*, from which Section
5 reads refusals) and the derivatives ``p =>^s p'`` of a whole string ``s``:

>>> sorted(kernel.weak_initials("p")), sorted(kernel.weak_initials("r"))
(['a'], [])
>>> sorted(kernel.string_derivatives("p", [])), sorted(kernel.string_derivatives("p", ["a"]))
(['p', 'q'], ['r'])
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence

from repro.core.errors import InvalidProcessError
from repro.core.fsp import EPSILON, TAU
from repro.core.lts import INDEX_TYPECODE, LTS


def tau_action_index(lts: LTS) -> int:
    """The interned index of :data:`~repro.core.fsp.TAU`, or ``-1`` when tau-free."""
    try:
        return lts.action_names.index(TAU)
    except ValueError:
        return -1


def tau_successor_lists(lts: LTS) -> list[Sequence[int]]:
    """Per-state lists of tau-successors (a shared empty tuple when none)."""
    tau = tau_action_index(lts)
    empty: tuple[int, ...] = ()
    succ: list[Sequence[int]] = [empty] * lts.n
    if tau < 0:
        return succ
    offsets, arc_actions, arc_targets = lts.fwd_offsets, lts.fwd_actions, lts.fwd_targets
    for src in range(lts.n):
        targets = [
            arc_targets[i]
            for i in range(offsets[src], offsets[src + 1])
            if arc_actions[i] == tau
        ]
        if targets:
            succ[src] = targets
    return succ


def tau_scc(
    lts: LTS, tau_succ: list[Sequence[int]] | None = None
) -> tuple[list[int], list[list[int]]]:
    """Tarjan SCC decomposition of the tau-sub-relation.

    Returns ``(scc_of, sccs)`` where ``scc_of[s]`` is the component id of
    state ``s`` and ``sccs[c]`` lists the members of component ``c``.
    Components are numbered in Tarjan emission order, which is *reverse
    topological*: every tau-arc between distinct components goes from a higher
    id to a strictly lower one.  The implementation is iterative -- each
    state on the depth-first path keeps an iterator over its successors, and
    the path lives in a list -- so deep tau-chains cannot hit the Python
    recursion limit.  A state whose component is emitted gets the index
    ``n``, above every live one, which stands in for Tarjan's on-stack flag;
    a state without successors is emitted where it is found, without a
    frame.
    """
    n = lts.n
    succ = tau_succ if tau_succ is not None else tau_successor_lists(lts)
    if not any(succ):  # tau-free: every state is its own component, in order
        return list(range(n)), [[s] for s in range(n)]
    index_of = [-1] * n
    low = [0] * n
    component_stack: list[int] = []
    scc_of = [-1] * n
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] >= 0:
            continue
        if not succ[root]:
            index_of[root] = n
            scc_of[root] = len(sccs)
            sccs.append([root])
            continue
        index_of[root] = low[root] = counter
        counter += 1
        component_stack.append(root)
        path = [root]
        frames = [iter(succ[root])]
        while frames:
            state = path[-1]
            for nxt in frames[-1]:
                seen = index_of[nxt]
                if seen < 0:
                    if succ[nxt]:
                        index_of[nxt] = low[nxt] = counter
                        counter += 1
                        component_stack.append(nxt)
                        path.append(nxt)
                        frames.append(iter(succ[nxt]))
                        break
                    index_of[nxt] = n
                    scc_of[nxt] = len(sccs)
                    sccs.append([nxt])
                elif seen < low[state]:
                    low[state] = seen
            else:
                frames.pop()
                path.pop()
                reach = low[state]
                if reach == index_of[state]:
                    component = len(sccs)
                    members: list[int] = []
                    while True:
                        member = component_stack.pop()
                        index_of[member] = n
                        scc_of[member] = component
                        members.append(member)
                        if member == state:
                            break
                    sccs.append(members)
                elif reach < low[path[-1]]:
                    low[path[-1]] = reach
    return scc_of, sccs


def _scc_successors(
    scc_of: list[int], sccs: list[list[int]], tau_succ: list[Sequence[int]]
) -> list[list[int]]:
    """Deduplicated direct successor components of each component in the condensation."""
    out: list[list[int]] = []
    for component, members in enumerate(sccs):
        seen: set[int] = set()
        for state in members:
            for target in tau_succ[state]:
                other = scc_of[target]
                if other != component:
                    seen.add(other)
        out.append(sorted(seen))
    return out


def _propagate(
    sccs: list[list[int]],
    scc_succs: list[list[int]],
    seed_bits: dict[int, int] | None,
) -> list[int]:
    """Bottom-up bitset DP over the condensation DAG, one value per component.

    Computes ``bits(C) = (U_{s in C} seed(s)) | (U_{C -tau-> C'} bits(C'))``
    walking components in their numbering order, which :func:`tau_scc`
    guarantees is children-first -- so every successor's value is final when
    it is read.  ``seed_bits`` maps a state to its seed bitset; ``None`` means
    the identity seed ``1 << s`` (which yields the tau-closures).  This single
    recurrence is both the closure computation and, seeded with
    ``step_a(s) = U closure(succ_a(s))``, the per-action weak relation.
    """
    out = [0] * len(sccs)
    for component, members in enumerate(sccs):
        bits = 0
        if seed_bits is None:
            for state in members:
                bits |= 1 << state
        else:
            for state in members:
                bits |= seed_bits.get(state, 0)
        for other in scc_succs[component]:
            bits |= out[other]
        out[component] = bits
    return out


def bits_to_indices(bits: int) -> list[int]:
    """The set bit positions of a bitset, ascending."""
    out: list[int] = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def epsilon_closures(saturated: LTS) -> list[int]:
    """Each state's ``=>^epsilon`` targets as a bitset, read off a saturated kernel.

    On the output of :func:`saturate_lts`, or a quotient collapsed from it,
    the :data:`EPSILON` arcs are the tau-closure; the state itself is always
    included.
    """
    offsets, actions, targets = saturated.fwd_offsets, saturated.fwd_actions, saturated.fwd_targets
    names = saturated.action_names
    epsilon = names.index(EPSILON) if EPSILON in names else -1
    closures = []
    for s in range(saturated.n):
        bits = 1 << s
        for i in range(offsets[s], offsets[s + 1]):
            if actions[i] == epsilon:
                bits |= 1 << targets[i]
        closures.append(bits)
    return closures


def _saturation_alphabet(lts: LTS, epsilon_action: str) -> tuple[list[str], list[int], int]:
    """Validate the epsilon marker and build the saturated action table.

    Returns ``(sat_action_names, action_map, epsilon_id)`` where ``action_map``
    sends an input action id to its saturated id (tau has no image; labels
    outside the observable alphabet are tolerated only while arc-free,
    otherwise their weak transitions would be silently dropped).
    """
    if epsilon_action == TAU or epsilon_action in lts.action_names:
        raise InvalidProcessError(
            f"epsilon marker {epsilon_action!r} collides with the process alphabet"
        )
    if lts.observable_alphabet is not None:
        observable = [a for a in lts.observable_alphabet if a != TAU]
    else:
        observable = [a for a in lts.action_names if a != TAU]
    sat_action_names = sorted(set(observable) | {epsilon_action})
    sat_index = {name: i for i, name in enumerate(sat_action_names)}
    used_actions = set(lts.fwd_actions)
    action_map: list[int] = []
    for act_id, name in enumerate(lts.action_names):
        if name == TAU:
            action_map.append(-1)
            continue
        mapped = sat_index.get(name)
        if mapped is None:
            if act_id in used_actions:
                raise InvalidProcessError(
                    f"action {name!r} carries arcs but is outside the observable alphabet"
                )
            action_map.append(-1)
            continue
        action_map.append(mapped)
    return sat_action_names, action_map, sat_index[epsilon_action]


def saturate_lts(lts: LTS, epsilon_action: str = EPSILON) -> LTS:
    """The saturated kernel ``P_hat`` of Theorem 4.1(a), entirely in CSR form.

    The result has the same states (and ``ext_sets`` / ``variables``) as the
    input; its actions are the observable alphabet plus ``epsilon_action``,
    and its arcs are exactly the weak transitions: ``p --a--> q`` iff
    ``p =>^a q`` and ``p --epsilon--> q`` iff ``p =>^epsilon q`` (reflexive,
    so every state carries an epsilon self-loop).  The arcs are laid out in
    ``(source, action, target)`` order, so the CSR arrays equal those
    :meth:`~repro.core.lts.LTS.from_fsp` interns from
    :func:`repro.core.derivatives.saturate_reference` of the input's FSP --
    the property tests pin that down, byte for byte.

    Raises
    ------
    InvalidProcessError
        If ``epsilon_action`` collides with an existing action or tau.
    """
    sat_action_names, action_map, epsilon_id = _saturation_alphabet(lts, epsilon_action)
    n = lts.n
    tau = tau_action_index(lts)
    tau_succ = tau_successor_lists(lts)
    scc_of, sccs = tau_scc(lts, tau_succ)
    scc_succs = _scc_successors(scc_of, sccs, tau_succ)
    # Closures per SCC, children-first.
    closure_bits = _propagate(sccs, scc_succs, None)

    # step_a(s) = union of closure(t) over a-arcs s -> t, for observable a.
    offsets, arc_actions, arc_targets = lts.fwd_offsets, lts.fwd_actions, lts.fwd_targets
    step: dict[int, dict[int, int]] = {}  # saturated action id -> {state: bits}
    for src in range(n):
        for i in range(offsets[src], offsets[src + 1]):
            act = arc_actions[i]
            if act == tau:
                continue
            per_state = step.setdefault(action_map[act], {})
            per_state[src] = per_state.get(src, 0) | closure_bits[scc_of[arc_targets[i]]]

    # W_a per SCC via the same children-first recurrence.
    weak = {
        act_id: _propagate(sccs, scc_succs, per_state) for act_id, per_state in step.items()
    }

    # Emit CSR arcs in (source, action, target) order.  All members of one
    # SCC share each target list, so extraction is cached per (action, SCC).
    target_cache: dict[tuple[int, int], list[int]] = {}
    sat_offsets = array(INDEX_TYPECODE, bytes(array(INDEX_TYPECODE).itemsize * (n + 1)))
    sat_actions_chunks: list[array] = []
    sat_targets_chunks: list[array] = []
    total = 0
    for src in range(n):
        component = scc_of[src]
        for act_id in range(len(sat_action_names)):
            if act_id == epsilon_id:
                key = (epsilon_id, component)
                targets = target_cache.get(key)
                if targets is None:
                    targets = bits_to_indices(closure_bits[component])
                    target_cache[key] = targets
            else:
                w = weak.get(act_id)
                if w is None or not w[component]:
                    continue
                key = (act_id, component)
                targets = target_cache.get(key)
                if targets is None:
                    targets = bits_to_indices(w[component])
                    target_cache[key] = targets
            count = len(targets)
            sat_actions_chunks.append(array(INDEX_TYPECODE, [act_id] * count))
            sat_targets_chunks.append(array(INDEX_TYPECODE, targets))
            total += count
        sat_offsets[src + 1] = total

    sat_actions = array(INDEX_TYPECODE)
    sat_targets = array(INDEX_TYPECODE)
    for chunk in sat_actions_chunks:
        sat_actions.extend(chunk)
    for chunk in sat_targets_chunks:
        sat_targets.extend(chunk)

    return LTS.from_csr(
        lts.state_names,
        sat_action_names,
        sat_offsets,
        sat_actions,
        sat_targets,
        start=lts.start,
        ext_sets=lts.ext_sets,
        variables=lts.variables,
        observable_alphabet=tuple(sat_action_names),
    )


class WeakKernel:
    """The weak-transition queries of one process, answered from bitsets.

    This is the library's one API for the weak relation ``p =>^s p'`` of
    Section 2.1: the process is interned once into the CSR kernel, the
    tau-SCC condensation and closure bitsets are computed once, and each
    observable action's weak relation is materialised lazily (per tau-SCC,
    not per state) the first time it is queried.  The bit-level queries take
    interned state ids and return bitsets; the name-level ones take state
    names and return frozensets of names, translated at the boundary.  The
    action :data:`EPSILON` reads ``=>^epsilon``, the tau-closure.
    """

    __slots__ = (
        "lts",
        "_index",
        "_scc_of",
        "_sccs",
        "_scc_succs",
        "_closure_scc",
        "_weak_scc",
        "_action_id",
        "_names_cache",
        "_initials",
    )

    def __init__(self, lts: LTS) -> None:
        self.lts = lts
        self._index = {name: i for i, name in enumerate(lts.state_names)}
        tau_succ = tau_successor_lists(lts)
        self._scc_of, self._sccs = tau_scc(lts, tau_succ)
        self._scc_succs = _scc_successors(self._scc_of, self._sccs, tau_succ)
        self._closure_scc = _propagate(self._sccs, self._scc_succs, None)
        self._weak_scc: dict[str, list[int]] = {}
        self._action_id = {name: i for i, name in enumerate(lts.action_names)}
        self._names_cache: dict[int, frozenset[str]] = {}
        self._initials: dict[str, frozenset[str]] = {}

    @classmethod
    def from_fsp(cls, fsp) -> "WeakKernel":
        return cls(LTS.from_fsp(fsp, include_tau=True))

    # ------------------------------------------------------------------
    # bit-level queries
    # ------------------------------------------------------------------
    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InvalidProcessError(f"{name!r} is not a state of this process") from None

    def closure_bits(self, state: int) -> int:
        """Tau-closure of one interned state as a bitset."""
        return self._closure_scc[self._scc_of[state]]

    def closures(self) -> list[int]:
        """The tau-closure bitset of every interned state, in state order."""
        closure = self._closure_scc
        return [closure[component] for component in self._scc_of]

    def weak_bits(self, state: int, action: str) -> int:
        """Weak ``action``-successors of one interned state as a bitset.

        ``action == EPSILON`` yields the tau-closure; :data:`TAU` is rejected
        (weak moves are indexed by observable actions only).
        """
        if action == EPSILON:
            return self.closure_bits(state)
        if action == TAU:
            raise InvalidProcessError(
                "weak successors are indexed by observable actions or EPSILON, not TAU"
            )
        return self._weak_table(action)[self._scc_of[state]]

    def _weak_table(self, action: str) -> list[int]:
        """The weak ``action``-successors of every tau-SCC, built on first use."""
        table = self._weak_scc.get(action)
        if table is not None:
            return table
        lts = self.lts
        scc_of, closure = self._scc_of, self._closure_scc
        act = self._action_id.get(action, -1)
        step: dict[int, int] = {}
        if act >= 0:
            offsets, arc_actions, arc_targets = (
                lts.fwd_offsets,
                lts.fwd_actions,
                lts.fwd_targets,
            )
            for src in range(lts.n):
                bits = 0
                for i in range(offsets[src], offsets[src + 1]):
                    if arc_actions[i] == act:
                        bits |= closure[scc_of[arc_targets[i]]]
                if bits:
                    step[src] = bits
        table = _propagate(self._sccs, self._scc_succs, step)
        self._weak_scc[action] = table
        return table

    def names_of(self, bits: int) -> frozenset[str]:
        """Translate a state bitset back to a frozenset of state names (cached)."""
        cached = self._names_cache.get(bits)
        if cached is None:
            names = self.lts.state_names
            cached = frozenset(names[i] for i in bits_to_indices(bits))
            self._names_cache[bits] = cached
        return cached

    # ------------------------------------------------------------------
    # name-level queries
    # ------------------------------------------------------------------
    def closure_dict(self) -> dict[str, frozenset[str]]:
        """The full tau-closure as the dict the reference implementation returns."""
        names = self.lts.state_names
        return {name: self.names_of(self.closure_bits(i)) for i, name in enumerate(names)}

    def epsilon_closure(self, state: str) -> frozenset[str]:
        """The set ``{p' | state =>^epsilon p'}``."""
        return self.names_of(self.closure_bits(self.state_index(state)))

    def weak_successors(self, state: str, action: str) -> frozenset[str]:
        """The set ``{p' | state =>^action p'}`` (the tau-closure for EPSILON)."""
        return self.names_of(self.weak_bits(self.state_index(state), action))

    def weak_successors_of_set(self, states: Iterable[str], action: str) -> frozenset[str]:
        """The weak ``action``-successors of a set of states (a subset-construction step)."""
        bits = 0
        for state in states:
            bits |= self.weak_bits(self.state_index(state), action)
        return self.names_of(bits)

    def weak_initials(self, state: str) -> frozenset[str]:
        """The observable actions ``a`` with ``state =>^a``; never :data:`EPSILON`.

        A refusal set of Section 5 is valid at ``state`` exactly when it is
        disjoint from these.  On a saturated process, whose alphabet holds
        the EPSILON marker, ``=>^epsilon`` holds everywhere, so the marker is
        skipped.  Memoised per state: the failure search asks for the
        initials of every member of every macro-state it visits.
        """
        initials = self._initials.get(state)
        if initials is None:
            component = self._scc_of[self.state_index(state)]
            initials = frozenset(
                action
                for action in self.lts.action_names
                if action != TAU and action != EPSILON and self._weak_table(action)[component]
            )
            self._initials[state] = initials
        return initials

    def string_derivatives(self, state: str, string: Sequence[str]) -> frozenset[str]:
        """The ``string``-derivatives ``{p' | state =>^string p'}``.

        ``string`` is a sequence of observable actions; the empty string
        yields the tau-closure of ``state``.
        """
        bits = self.closure_bits(self.state_index(state))
        for action in string:
            step = 0
            for member in bits_to_indices(bits):
                step |= self.weak_bits(member, action)
            bits = step
            if not bits:
                break
        return self.names_of(bits)
