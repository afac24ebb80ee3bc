"""Parameterised process families used by the benchmark harness.

Each family is a function from a size parameter to an FSP (or a pair of FSPs)
with a known, documented structure.  They are the workloads of the
benchmark cells in ``benchmarks/cells.py``:

* scaling families for the partition-refinement comparison of Theorem 3.1
  (chains, cycles, complete bipartite "combs", trees with duplicated
  subtrees);
* tau-rich families for the observational-equivalence benchmark of
  Theorem 4.1(a);
* the hard universality-style instances that make ``approx_1`` / ``approx_k``
  and failure equivalence blow up (Lemma 4.2 / Theorems 4.1(b), 5.1).
"""

from __future__ import annotations

import math

from repro.core.errors import InvalidProcessError
from repro.core.fsp import ACCEPT, FSP, TAU, FSPBuilder, from_transitions


def with_snag(fsp: FSP, state: str, action: str = "snag") -> FSP:
    """Return ``fsp`` with an ``action`` self-loop snagged onto ``state``.

    The *snag* is the local-fault idiom shared by the composed families and
    by the crash-fault rewriter of :mod:`repro.protocols.faults`: one extra
    self-loop (observable, or ``tau`` when ``action`` is ``TAU``) planted on
    an existing state.  It adds behaviour but no states, so snagged and clean
    systems have identical reachable sizes while being inequivalent under
    every notion from language up (for observable ``action``).
    """
    state = str(state)
    if state not in fsp.states:
        raise InvalidProcessError(
            f"cannot snag unknown state {state!r} (states: {sorted(fsp.states)})"
        )
    alphabet = set(fsp.alphabet)
    if action != TAU:
        alphabet.add(str(action))
    return FSP(
        states=fsp.states,
        start=fsp.start,
        alphabet=alphabet,
        transitions=set(fsp.transitions) | {(state, str(action), state)},
        variables=fsp.variables,
        extensions=fsp.extensions,
    )


def chain(length: int, action: str = "a", all_accepting: bool = True) -> FSP:
    """A simple chain ``s0 --a--> s1 --a--> ... --a--> s_length``."""
    transitions = [(f"s{i}", action, f"s{i + 1}") for i in range(length)]
    return from_transitions(
        transitions,
        start="s0",
        all_accepting=all_accepting,
        accepting=[f"s{length}"],
        alphabet={action},
    )


def cycle(length: int, action: str = "a", all_accepting: bool = True) -> FSP:
    """A directed cycle of the given length."""
    if length < 1:
        raise ValueError("cycle length must be positive")
    transitions = [(f"s{i}", action, f"s{(i + 1) % length}") for i in range(length)]
    return from_transitions(
        transitions,
        start="s0",
        all_accepting=all_accepting,
        accepting=["s0"],
        alphabet={action},
    )


def binary_tree(depth: int, actions: tuple[str, str] = ("a", "b")) -> FSP:
    """A complete binary tree of the given depth (a finite-tree restricted process)."""
    builder = FSPBuilder(alphabet=set(actions))
    builder.add_state("n")

    def grow(node: str, remaining: int) -> None:
        if remaining == 0:
            return
        left, right = node + "0", node + "1"
        builder.add_transition(node, actions[0], left)
        builder.add_transition(node, actions[1], right)
        grow(left, remaining - 1)
        grow(right, remaining - 1)

    grow("n", depth)
    builder.mark_all_accepting()
    return builder.build(start="n")


def comb(teeth: int, actions: tuple[str, str] = ("a", "b")) -> FSP:
    """A "comb": a chain of ``a``-moves with a ``b``-tooth hanging off every node.

    Combs refine slowly under partition refinement (each tooth distance from
    the end gives a distinct class), which makes them a good stress test for
    the splitter-queue algorithms.
    """
    builder = FSPBuilder(alphabet=set(actions))
    for index in range(teeth):
        builder.add_transition(f"c{index}", actions[0], f"c{index + 1}")
        builder.add_transition(f"c{index}", actions[1], f"tooth{index}")
    builder.mark_all_accepting()
    return builder.build(start="c0")


def tau_ladder(rungs: int, action: str = "a") -> FSP:
    """A tau-rich process: a chain alternating tau and observable moves.

    The tau-closure of the start state grows linearly with ``rungs`` and the
    saturated process of Theorem 4.1(a) becomes quadratically denser, which is
    exactly the regime the observational-equivalence benchmark measures.
    """
    builder = FSPBuilder(alphabet={action})
    for index in range(rungs):
        builder.add_transition(f"u{index}", TAU, f"u{index + 1}")
        builder.add_transition(f"u{index}", action, f"v{index}")
        builder.add_transition(f"v{index}", TAU, f"u{index}")
    builder.mark_all_accepting()
    return builder.build(start="u0")


def tau_mesh(size: int, action: str = "a") -> FSP:
    """A square tau-mesh: tau-moves right and down, an observable diagonal.

    States form a ``side x side`` grid with ``side = ceil(sqrt(size))`` (at
    least 2): state ``(r, c)`` has tau-moves to ``(r+1, c)`` and ``(r, c+1)``
    and an ``action``-move to ``(r+1, c+1)``.  The tau-closure of ``(r, c)``
    is the whole rectangle below and to the right, so the saturated relation
    has ``Theta(n^2)`` arcs while the input is sparse -- the regime where the
    kernel saturation's bitset propagation pays off most.  Unlike
    :func:`tau_ladder` the tau sub-relation is a DAG of overlapping paths
    (every tau-SCC is a singleton), complementing the ladder's cycles.
    """
    side = max(2, math.isqrt(max(0, size - 1)) + 1)
    builder = FSPBuilder(alphabet={action})

    def name(row: int, col: int) -> str:
        return f"g{row}_{col}"

    for row in range(side):
        for col in range(side):
            if row + 1 < side:
                builder.add_transition(name(row, col), TAU, name(row + 1, col))
            if col + 1 < side:
                builder.add_transition(name(row, col), TAU, name(row, col + 1))
            if row + 1 < side and col + 1 < side:
                builder.add_transition(name(row, col), action, name(row + 1, col + 1))
    builder.mark_all_accepting()
    return builder.build(start=name(0, 0))


def tau_diamond_tower(levels: int, actions: tuple[str, str] = ("a", "b")) -> FSP:
    """A tower of tau-diamonds with observable shortcuts.

    Level ``i`` is a diamond ``t_i --tau--> l_i | r_i --tau--> t_{i+1}`` with
    observable shortcuts ``l_i --a--> t_{i+1}`` and ``r_i --b--> t_{i+1}``
    (``3 * levels + 1`` states).  Every state tau-reaches every later level,
    so saturation is quadratically dense, and the number of tau-*paths* grows
    as ``2^levels`` -- per-path enumeration dies here while the closure
    computation stays linear in the condensation.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    first, second = actions
    builder = FSPBuilder(alphabet=set(actions))
    for level in range(levels):
        top, left, right, nxt = (
            f"t{level}",
            f"l{level}",
            f"r{level}",
            f"t{level + 1}",
        )
        builder.add_transition(top, TAU, left)
        builder.add_transition(top, TAU, right)
        builder.add_transition(left, TAU, nxt)
        builder.add_transition(right, TAU, nxt)
        builder.add_transition(left, first, nxt)
        builder.add_transition(right, second, nxt)
    builder.mark_all_accepting()
    return builder.build(start="t0")


def shift_register(bits: int, actions: tuple[str, str] = ("a", "b")) -> FSP:
    """A de Bruijn shift register: ``2^bits`` states, refinement depth ``bits``.

    State ``i`` encodes the register contents; shifting in a ``0`` (action
    ``a``) moves to ``i >> 1`` and shifting in a ``1`` (action ``b``) to
    ``(i >> 1) | 2^(bits-1)``.  Only odd states (low bit set) are accepting,
    so the initial partition splits on bit 0, round ``r`` of signature
    refinement splits on bit ``r``, and the coarsest stable partition is
    discrete after exactly ``bits`` rounds.

    The family is deterministic with fanout 2 and ``O(log n)`` refinement
    depth -- the wide-and-shallow regime where the round-synchronous
    vectorized kernel dominates the sequential worklist solvers (contrast
    :func:`comb` and :func:`duplicated_chain`, whose ``Theta(n)`` depth is
    worklist territory).  :func:`shift_register_csr` builds the same system
    straight into CSR arrays for sizes where a dict FSP cannot be
    materialised.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    n = 1 << bits
    half = n >> 1
    builder = FSPBuilder(alphabet=set(actions))
    for i in range(n):
        builder.add_transition(f"s{i}", actions[0], f"s{i >> 1}")
        builder.add_transition(f"s{i}", actions[1], f"s{(i >> 1) | half}")
    builder.mark_accepting(*(f"s{i}" for i in range(1, n, 2)))
    return builder.build(start="s0")


def shift_register_csr(bits: int, mmap_dir=None):
    """:func:`shift_register` built directly as CSR arrays, no FSP in between.

    Returns ``(csr, block_of)`` where ``csr`` is a
    :class:`~repro.utils.matrices.CSRArrays` (or a
    :class:`~repro.utils.matrices.MmapCSR` when ``mmap_dir`` is given, the
    out-of-core route for the ``10^6``-state tier) and ``block_of`` is the
    initial assignment by acceptance parity -- the same instance the FSP
    route produces, expressed on integers.
    """
    from repro.utils.matrices import CSRArrays, MmapCSR, require_numpy

    np = require_numpy()
    if bits < 1:
        raise ValueError("bits must be positive")
    n = 1 << bits
    half = n >> 1
    states = np.arange(n, dtype=np.int64)
    if mmap_dir is not None:
        store = MmapCSR.create(mmap_dir, n, 2, 2 * n)
        store.offsets[:] = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
        store.actions[0::2] = 0
        store.actions[1::2] = 1
        store.targets[0::2] = states >> 1
        store.targets[1::2] = (states >> 1) | half
        store.flush()
        csr = store
    else:
        targets = np.empty(2 * n, dtype=np.int64)
        targets[0::2] = states >> 1
        targets[1::2] = (states >> 1) | half
        actions = np.tile(np.array([0, 1], dtype=np.int64), n)
        offsets = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
        csr = CSRArrays(n, 2, offsets, actions, targets)
    return csr, (states & 1)


def nondeterministic_counter(bits: int) -> FSP:
    """A standard observable process whose determinisation has ~2^bits states.

    The classical "the k-th symbol from the end is an `a`" automaton: from the
    start state the process guesses the distinguished position.  Used to drive
    the exponential worst cases of ``approx_1`` / failure equivalence, i.e.
    the empirical face of the PSPACE-hardness results.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    builder = FSPBuilder(alphabet={"a", "b"})
    builder.add_transition("g", "a", "g")
    builder.add_transition("g", "b", "g")
    builder.add_transition("g", "a", "d0")
    for index in range(bits - 1):
        builder.add_transition(f"d{index}", "a", f"d{index + 1}")
        builder.add_transition(f"d{index}", "b", f"d{index + 1}")
    builder.mark_accepting(f"d{bits - 1}")
    return builder.build(start="g")


def restricted_counter(bits: int) -> FSP:
    """The restricted (all-accepting) variant of :func:`nondeterministic_counter`.

    Feeding it to the failure-equivalence checker exhibits the exponential
    subset-construction behaviour predicted by Theorem 5.1.
    """
    base = nondeterministic_counter(bits)
    return FSP(
        states=base.states,
        start=base.start,
        alphabet=base.alphabet,
        transitions=base.transitions,
        variables=[ACCEPT],
        extensions=[(state, ACCEPT) for state in base.states],
    )


def duplicated_chain(length: int, copies: int, action: str = "a") -> FSP:
    """A chain in which every node is duplicated ``copies`` times.

    All duplicates of a node are strongly equivalent, so the minimal quotient
    is the plain chain; the family measures how quickly the refinement
    algorithms collapse large equivalence classes.
    """
    builder = FSPBuilder(alphabet={action})
    for index in range(length):
        for copy_src in range(copies):
            for copy_dst in range(copies):
                builder.add_transition(f"s{index}_{copy_src}", action, f"s{index + 1}_{copy_dst}")
    for copy in range(copies):
        builder.add_state(f"s{length}_{copy}")
    builder.mark_all_accepting()
    return builder.build(start="s0_0")


def kanellakis_pair(size: int) -> tuple[FSP, FSP]:
    """A pair of large, strongly *equivalent* processes of parametric size.

    Both are duplicated chains of the same length with different duplication
    factors, so their quotients coincide; equivalence checkers must do real
    work to discover it.  Used as the "equivalent" column of the Theorem 3.1
    benchmark.
    """
    return duplicated_chain(size, 2), duplicated_chain(size, 3)


def kanellakis_inequivalent_pair(size: int) -> tuple[FSP, FSP]:
    """A pair of similar but inequivalent processes.

    The right process is the duplicated chain with two extra states appended
    after the final chain node, so it admits strictly longer traces than the
    left one; the difference only becomes visible after refining all the way
    down the chain, which keeps the pair a meaningful "hard inequivalent"
    benchmark input.
    """
    left = duplicated_chain(size, 2)
    right_builder = FSPBuilder(alphabet={"a"})
    for src, action, dst in duplicated_chain(size, 2).transitions:
        right_builder.add_transition(src, action, dst)
    right_builder.add_transition(f"s{size}_0", "a", "stray")
    right_builder.add_transition("stray", "a", "stray2")
    right_builder.mark_all_accepting()
    return left, right_builder.build(start="s0_0")


# ----------------------------------------------------------------------
# Composed scenario families (Section 6 workloads for repro.explore)
# ----------------------------------------------------------------------
def _fold_ccs(specs):
    """Left-fold a list of component specs into one CCS composition tree."""
    from repro.explore.system import ProductSpec

    tree = specs[0]
    for spec in specs[1:]:
        tree = ProductSpec("ccs", tree, spec)
    return tree


def deterministic_cycle(length: int, action: str, extra=()) -> FSP:
    """A deterministic cycle over one action, with optional extra transitions.

    ``extra`` is an iterable of ``(state_index, action, state_index)``
    triples layered on top of the cycle -- the hook the inequivalent
    composed families use to plant a local fault.
    """
    if length < 1:
        raise ValueError("cycle length must be positive")
    builder = FSPBuilder(alphabet={action})
    for index in range(length):
        builder.add_transition(f"k{index}", action, f"k{(index + 1) % length}")
    for src, extra_action, dst in extra:
        builder.add_transition(f"k{src % length}", extra_action, f"k{dst % length}")
    builder.mark_all_accepting()
    return builder.build(start="k0")


def interleaved_cycles_system(lengths, fault_depth: int | None = None):
    """Pure interleaving of independent cycles with disjoint alphabets.

    Component ``j`` is a deterministic cycle of ``lengths[j]`` states over
    the private action ``c<j>``, so the reachable product is exactly the
    grid of size ``prod(lengths)`` -- the textbook exponential-product
    family.  With ``fault_depth`` set, component 0 gains a ``snag``
    self-loop at that depth: a *local* fault whose product-level effect is a
    shallow trace difference, the shape the on-the-fly checker is built to
    find without sweeping the grid.
    """
    from repro.explore.system import LeafSpec, ProductSpec

    if not lengths:
        raise ValueError("at least one cycle is required")
    components = []
    for index, length in enumerate(lengths):
        component = deterministic_cycle(length, f"c{index}")
        if fault_depth is not None and index == 0:
            component = with_snag(component, f"k{fault_depth % length}", "snag")
        components.append(LeafSpec(component, label=f"cycle{index}"))
    tree = components[0]
    for component in components[1:]:
        tree = ProductSpec("interleave", tree, component)
    return tree


def interleaved_cycles_pair(lengths, fault_depth: int = 2):
    """An (equivalent-shape, locally-faulty) pair of interleaved-cycle systems.

    Both systems have exactly ``prod(lengths)`` reachable product states
    (the fault is a self-loop, adding behaviour but no states); they are
    inequivalent under every notion from language up, with the difference
    reachable within ``fault_depth + 1`` moves of the start.
    """
    return (
        interleaved_cycles_system(lengths),
        interleaved_cycles_system(lengths, fault_depth=fault_depth),
    )


def interleaved_cycles_product_size(lengths) -> int:
    """The exact reachable product size of :func:`interleaved_cycles_system`."""
    size = 1
    for length in lengths:
        size *= length
    return size


def dining_philosophers_system(num_philosophers: int = 3):
    """Dijkstra's dining philosophers as a CCS composition spec.

    Philosopher ``i`` picks up fork ``i`` then fork ``i+1 mod n`` (the
    deadlock-prone symmetric protocol), eats (``eat<i>``, observable) and
    puts both forks back; fork ``j`` is a two-state mutex.  All handshake
    channels are restricted, so the composed system moves on ``eat<i>`` and
    tau only -- the classic "state explosion with a deadlock hiding in it"
    workload for on-the-fly exploration.

    Restriction is pushed *inward*: fork ``j``'s channels are closed off as
    soon as both of its users (philosophers ``j-1`` and ``j``) are in the
    subtree.  This is behaviour-preserving (the channels have no other
    users) and is what lets ``minimize_compositionally`` keep intermediate
    products small instead of dragging open handshakes to the root.
    """
    from repro.explore.system import LeafSpec, ProductSpec, RestrictSpec

    n = num_philosophers
    if n < 2:
        raise ValueError("at least two philosophers are required")

    def philosopher(i: int) -> LeafSpec:
        left, right = i, (i + 1) % n
        builder = FSPBuilder(alphabet={f"pick{left}!", f"pick{right}!", f"put{left}!",
                                       f"put{right}!", f"eat{i}"})
        builder.add_transition("think", f"pick{left}!", "left_held")
        builder.add_transition("left_held", f"pick{right}!", "ready")
        builder.add_transition("ready", f"eat{i}", "sated")
        builder.add_transition("sated", f"put{left}!", "dropping")
        builder.add_transition("dropping", f"put{right}!", "think")
        builder.mark_all_accepting()
        return LeafSpec(builder.build(start="think"), label=f"phil{i}")

    def fork(j: int) -> LeafSpec:
        builder = FSPBuilder(alphabet={f"pick{j}", f"put{j}"})
        builder.add_transition("free", f"pick{j}", "busy")
        builder.add_transition("busy", f"put{j}", "free")
        builder.mark_all_accepting()
        return LeafSpec(builder.build(start="free"), label=f"fork{j}")

    tree = philosopher(0)
    for i in range(1, n):
        # fork i's users are philosophers i-1 and i, both now present.
        tree = RestrictSpec(
            ProductSpec("ccs", ProductSpec("ccs", tree, philosopher(i)), fork(i)),
            frozenset({f"pick{i}", f"put{i}"}),
        )
    # fork 0 closes the ring: its users are philosophers 0 and n-1.
    root = RestrictSpec(
        ProductSpec("ccs", tree, fork(0)), frozenset({"pick0", "put0"})
    )
    from repro.explore.reduce import RotationSymmetry, annotate_symmetry

    # Leaf flatten order is phil0, phil1, fork1, phil2, fork2, ...,
    # phil<n-1>, fork<n-1>, fork0; rotating the table advances philosophers
    # and forks together, so both rings rotate simultaneously.
    phil_ring = (0,) + tuple(2 * i - 1 for i in range(1, n))
    fork_ring = (2 * n - 1,) + tuple(2 * i for i in range(1, n))
    return annotate_symmetry(root, RotationSymmetry((phil_ring, fork_ring)))


def redundant_interleaving_system(num_components: int = 3, length: int = 4, copies: int = 3):
    """Interleaving of duplicated chains: the compositional-minimisation showcase.

    Each component is a :func:`duplicated_chain` over a private action, so it
    carries ``copies``-fold internal redundancy that quotients away to a
    plain chain.  The eager route builds the full ``(length * copies)``-ish
    grid before minimising; ``minimize_compositionally`` shrinks every
    component first and composes quotients -- the regime where minimising
    before the product beats minimising after it.
    """
    from repro.explore.system import LeafSpec, ProductSpec

    if num_components < 1:
        raise ValueError("at least one component is required")
    tree = None
    for index in range(num_components):
        leaf = LeafSpec(
            duplicated_chain(length, copies, action=f"c{index}"), label=f"dup{index}"
        )
        tree = leaf if tree is None else ProductSpec("interleave", tree, leaf)
    return tree


def token_ring_system(num_stations: int = 4, faulty_station: int | None = None):
    """A token ring: stations serve in turn, passing the token on a hidden channel.

    Station ``i`` waits for ``tok<i>``, performs the observable ``serve<i>``
    and hands the token to station ``i+1 mod n``; station 0 starts holding
    the token.  With ``faulty_station`` set, that station can also drop into
    a ``fault<i>`` self-loop instead of serving -- a trace-level deviation
    used by :func:`token_ring_pair`.
    """
    from repro.explore.system import LeafSpec, RestrictSpec

    n = num_stations
    if n < 2:
        raise ValueError("at least two stations are required")
    components = []
    for i in range(n):
        succ = (i + 1) % n
        alphabet = {f"tok{i}", f"tok{succ}!", f"serve{i}"}
        builder = FSPBuilder(alphabet=alphabet)
        builder.add_transition("wait", f"tok{i}", "holding")
        builder.add_transition("holding", f"serve{i}", "served")
        builder.add_transition("served", f"tok{succ}!", "wait")
        builder.mark_all_accepting()
        station = builder.build(start="holding" if i == 0 else "wait")
        if faulty_station == i:
            station = with_snag(station, "holding", f"fault{i}")
        components.append(LeafSpec(station, label=f"station{i}"))
    channels = frozenset(f"tok{i}" for i in range(n))
    root = RestrictSpec(_fold_ccs(components), channels)
    if faulty_station is None:
        # A fault pins one station, breaking the rotation; only the healthy
        # ring is symmetric.
        from repro.explore.reduce import RotationSymmetry, annotate_symmetry

        annotate_symmetry(root, RotationSymmetry((tuple(range(n)),)))
    return root


def token_ring_pair(num_stations: int = 4, faulty_station: int = 1):
    """A (correct, faulty) token-ring pair, inequivalent under every notion."""
    return (
        token_ring_system(num_stations),
        token_ring_system(num_stations, faulty_station=faulty_station),
    )


def milner_scheduler_system(num_cyclers: int = 3):
    """Milner's scheduler: cyclers start tasks in round-robin order.

    Cycler ``i`` receives the scheduling token, performs the observable
    ``start<i>``, and then -- in either order -- finishes its task
    (``finish<i>``) and hands the token to cycler ``i+1 mod n``, so distinct
    tasks genuinely overlap.  Token channels are restricted, so every
    hand-off appears as a synchronisation tau -- the tau-rich shape
    observational equivalence is about.
    """
    from repro.explore.system import LeafSpec, RestrictSpec

    n = num_cyclers
    if n < 2:
        raise ValueError("at least two cyclers are required")
    components = []
    for i in range(n):
        succ = (i + 1) % n
        builder = FSPBuilder(
            alphabet={f"tok{i}", f"tok{succ}!", f"start{i}", f"finish{i}"}
        )
        builder.add_transition("idle", f"tok{i}", "ready")
        builder.add_transition("ready", f"start{i}", "running")
        # the (finish | pass-token) diamond: both interleavings
        builder.add_transition("running", f"tok{succ}!", "finishing")
        builder.add_transition("finishing", f"finish{i}", "idle")
        builder.add_transition("running", f"finish{i}", "passing")
        builder.add_transition("passing", f"tok{succ}!", "idle")
        builder.mark_all_accepting()
        components.append(
            LeafSpec(builder.build(start="ready" if i == 0 else "idle"), label=f"cycler{i}")
        )
    channels = frozenset(f"tok{i}" for i in range(n))
    root = RestrictSpec(_fold_ccs(components), channels)
    from repro.explore.reduce import RotationSymmetry, annotate_symmetry

    return annotate_symmetry(root, RotationSymmetry((tuple(range(n)),)))
