"""Language (NFA) equivalence of FSP states -- the classical baseline.

Proposition 2.2.3(b) identifies ``approx_1`` on the restricted model with
classical language equivalence ``L(p) = L(q)``, and Proposition 2.2.4 shows
that on the deterministic model *every* equivalence of the paper collapses to
it.  This module exposes the language view of an FSP state: the weak-transition
NFA rooted at that state, language equivalence/inclusion/universality
decisions, and distinguishing words used as counterexamples.

All functions accept general FSPs; tau-transitions are treated as epsilon
moves, so ``L(p)`` is the set of *observable* strings that can reach an
accepting state, matching the paper's use of ``=>^s``.

Every language-type decision of the library is one :func:`subset_search`:
the AHU union-find procedure (Hopcroft-Karp) the paper cites, run on the fly
over a :class:`MacroMoves` table -- macrostates closed under ``=>^epsilon``
as Python-int bitsets -- so no side is determinised or minimised beyond the
pairs the search visits, and the search stops at the first word after which
the two sides observe differently.  A table walks the arcs it is given and
closes each target with its closure bitset: a
:class:`~repro.core.weak.WeakKernel` supplies both for an FSP, and the
``=>^epsilon`` arcs of a saturated kernel supply the closures there
(:func:`~repro.core.weak.epsilon_closures`).

The same search decides failure equivalence
(:mod:`repro.equivalence.failure`) and each ``approx_k`` round
(:mod:`repro.equivalence.kobs`).  Hopcroft-Karp stays sound whatever a
macrostate shows, as long as it is a function of the macrostate (Bonchi and
Pous, POPL 2013), so the notions differ only in the observation their
table records: acceptance, the maximal refusals, or the blocks of
``approx_k`` met.  Inclusion needs no other search: ``L(p)`` is included in
``L(q)`` exactly when the macrostate ``closure(p) | closure(q)`` is
language-equivalent to ``closure(q)``; universality compares against a
one-state, all-accepting table.

A bound ``max_states`` counts the non-empty macrostates a search visits on
either side, so a bounded decision answers wherever determinising each side
within the bound would -- except inclusion: its left side visits the unions
of the two sides' macrostates reached by one word, which can outnumber the
macrostates of either side.

:func:`language_nfa` is the literal automaton view (tau-arcs become
epsilon-arcs of the NFA, O(m) arcs), and :func:`language_dfa` its minimal
DFA; the tests determinise them as their oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence

from repro.automata.dfa import DFA, determinize
from repro.automata.minimize import hopcroft_minimize
from repro.automata.nfa import NFA
from repro.core.errors import InvalidProcessError, StateSpaceLimitError
from repro.core.fsp import ACCEPT, EPSILON, FSP, TAU
from repro.core.lts import LTS
from repro.core.weak import WeakKernel


def language_nfa(fsp: FSP, start: str | None = None, accepting: Iterable[str] | None = None) -> NFA:
    """The NFA accepting ``L(start)`` (acceptance by the standard-model extension).

    Parameters
    ----------
    fsp:
        The process.
    start:
        The state to root the automaton at; defaults to the process start
        state.
    accepting:
        Override of the accepting set (used by the ``approx_k`` machinery to
        accept at an arbitrary block).
    """
    root = fsp.start if start is None else start
    accept = frozenset(accepting) if accepting is not None else fsp.accepting_states()
    transitions = [
        (src, None if action == TAU else action, dst) for src, action, dst in fsp.transitions
    ]
    return NFA(
        states=fsp.states,
        start=root,
        alphabet=fsp.alphabet,
        transitions=transitions,
        accepting=accept,
    )


def language_dfa(fsp: FSP, start: str | None = None, max_states: int | None = None) -> DFA:
    """The minimal DFA for ``L(start)`` (subset construction + Hopcroft)."""
    return hopcroft_minimize(determinize(language_nfa(fsp, start), max_states=max_states))


#: A notion's per-macrostate observation: any hashable function of the bitset.
Observation = Callable[[int], Hashable]

#: An interned macrostate: its bitset and its observation.
Macrostate = tuple[int, Hashable]


def require_observable(fsp: FSP, notion: str) -> None:
    """Refuse an alphabet holding the reserved :data:`~repro.core.fsp.EPSILON` marker.

    Failure equivalence and ``approx_k`` compare derivatives over observable
    strings.  On an already-saturated process the marker's arcs would be
    read as a letter while the kernel reads ``=>^epsilon`` as the
    tau-closure, so the two notions refuse it; language equivalence reads
    it as a letter, as :func:`language_nfa` does.
    """
    if EPSILON in fsp.alphabet:
        raise InvalidProcessError(
            f"{notion} is undefined over the reserved marker {EPSILON!r}; "
            "pass the unsaturated process instead"
        )


class MacroMoves:
    """The explored part of one subset automaton, over the arcs it walks.

    A macrostate is a Python-int bitset over the states of ``arcs``, closed
    under ``=>^epsilon``: a search from a state starts at its closure
    (:meth:`start`), and the ``a``-successor of ``M`` is the union of
    ``closure[t]`` over the ``a``-arcs ``s -a-> t`` leaving ``M``.  The
    arcs may be an FSP's own, with ``closure`` its tau-closures
    (:meth:`WeakKernel.closures <repro.core.weak.WeakKernel.closures>`), or
    a saturated kernel's weak arcs, with ``closure`` read off its
    ``=>^epsilon`` arcs (:func:`~repro.core.weak.epsilon_closures`).  Each
    macrostate is interned to a dense id with its observation
    ``observe(bits)``, the one thing a notion compares there: whether it
    accepts for language equivalence (:meth:`from_fsp`), its maximal
    refusals for failure equivalence, the blocks it meets for ``approx_k``.
    The successors of each macrostate are computed on first request and
    kept, so every search over one table reuses the moves explored before.
    """

    __slots__ = (
        "symbols",
        "_observe",
        "_closure",
        "_slot",
        "_arcs",
        "_ids",
        "_macros",
        "_moves",
    )

    def __init__(
        self,
        arcs: LTS,
        closure: Sequence[int],
        alphabet: Iterable[str],
        observe: Observation,
    ):
        self.symbols = tuple(sorted(alphabet))
        self._observe = observe
        self._closure = closure
        position = {symbol: i for i, symbol in enumerate(self.symbols)}
        # tau, a saturated kernel's epsilon marker and any label outside the
        # alphabet land in a spare last slot.
        slot = [position.get(name, len(self.symbols)) for name in arcs.action_names]
        self._slot = [slot[a] for a in arcs.fwd_actions]  # per arc
        self._arcs = arcs.fwd_offsets.tolist(), arcs.fwd_targets.tolist()
        self._ids: dict[int, int] = {}
        self._macros: list[Macrostate] = []
        self._moves: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_fsp(cls, fsp: FSP, kernel: WeakKernel | None = None) -> "MacroMoves":
        """The language moves of ``fsp``, over ``kernel`` when given.

        A macrostate observes whether it meets the accepting states, and
        macrostate 0 is the start state's closure.  Acceptance is read off
        the kernel's extension sets, not the FSP's.
        """
        kernel = kernel if kernel is not None else WeakKernel.from_fsp(fsp)
        accepting = 0
        for state, ext in enumerate(kernel.lts.ext_sets):
            if ACCEPT in ext:
                accepting |= 1 << state
        moves = cls(
            kernel.lts, kernel.closures(), fsp.alphabet, lambda bits: bool(bits & accepting)
        )
        moves.start(kernel.lts.start)
        return moves

    def __len__(self) -> int:
        """The number of macrostates interned so far."""
        return len(self._ids)

    def start(self, state: int) -> int:
        """The id of state ``state``'s closure, where a search from it starts."""
        return self.intern(self._closure[state])

    def intern(self, bits: int) -> int:
        """The id of the macrostate ``bits`` (a new one on first sight)."""
        macro = self._ids.get(bits)
        if macro is None:
            # The record goes in before the index: an interrupted intern
            # leaves an unreferenced record, never a dangling id.
            self._macros.append((bits, self._observe(bits)))
            macro = self._ids[bits] = len(self._macros) - 1
        return macro

    def successors(self, macro: int) -> tuple[int, ...]:
        """The successor macrostate ids of ``macro``, one per symbol in order."""
        moves = self._moves.get(macro)
        if moves is None:
            (offsets, targets), slot, closure = self._arcs, self._slot, self._closure
            step = [0] * (len(self.symbols) + 1)
            bits = self._macros[macro][0]
            while bits:
                low = bits & -bits
                bits ^= low
                s = low.bit_length() - 1
                for i in range(offsets[s], offsets[s + 1]):
                    step[slot[i]] |= closure[targets[i]]
            step.pop()
            moves = tuple(map(self.intern, step))
            self._moves[macro] = moves
        return moves


def subset_search(
    left: MacroMoves,
    right: MacroMoves,
    starts: tuple[int, int],
    max_states: int | None = None,
) -> tuple[tuple[str, ...], Macrostate, Macrostate] | None:
    """Hopcroft-Karp on the fly: a shortest word after which the sides observe differently.

    Pairs of macrostates reached by the same word are merged in a
    union-find over ``(side, macrostate)``, breadth-first from the pair of
    ``starts``; a pair whose two sides are already merged is not explored
    again.  The search stops at the first pair whose observations differ
    and returns the word leading to it with the two macrostates, each as
    ``(bits, observation)``; None when no word separates the sides.
    Breadth-first order makes that word a shortest one.  Merging is sound
    for any observation that is a function of the macrostate (Bonchi and
    Pous, POPL 2013), and neither side is determinised beyond the pairs the
    search visits (the AHU procedure the paper cites needs no more).
    ``left`` and ``right`` may be one table, comparing two states of one
    process; the two sides then share their union-find nodes.

    ``max_states`` bounds the non-empty macrostates the search visits on
    either side; going beyond it raises
    :class:`~repro.core.errors.StateSpaceLimitError`.  Only visited
    macrostates count, so a search answers whenever determinising each side
    within the bound would.
    """
    if left.symbols != right.symbols:
        raise InvalidProcessError("a subset search requires identical alphabets")
    symbols = left.symbols
    first, second = starts
    # Union-find nodes: left macrostate i is 2i, right macrostate j is
    # 2j + 1, or 2j when both sides walk one table.
    side = int(left is not right)
    parent: dict[int, int] = {2 * first: 2 * second + side}
    pairs = [starts]
    origin = [(-1, -1)]
    visited: tuple[set[int], set[int]] = (set(), set())

    def root(node: int) -> int:
        up = parent.get(node, node)
        while up != node:
            parent[node] = node = parent.get(up, up)
            up = parent.get(node, node)
        return node

    # (bits, observation) per macrostate id, read directly in the hot loop.
    left_macros, right_macros = left._macros, right._macros
    index = 0
    while index < len(pairs):
        macro_left, macro_right = pairs[index]
        left_record, right_record = left_macros[macro_left], right_macros[macro_right]
        if max_states is not None:
            for seen, macro, (bits, _) in zip(visited, pairs[index], (left_record, right_record)):
                if bits and macro not in seen:
                    seen.add(macro)
                    if len(seen) > max_states:
                        raise StateSpaceLimitError(
                            f"subset search exceeded {max_states} macro-states"
                        )
        if left_record[1] != right_record[1]:
            word: list[str] = []
            while index > 0:
                index, position = origin[index]
                word.append(symbols[position])
            return tuple(reversed(word)), left_record, right_record
        following = zip(left.successors(macro_left), right.successors(macro_right))
        for position, (next_left, next_right) in enumerate(following):
            top_left, top_right = root(2 * next_left), root(2 * next_right + side)
            if top_left != top_right:
                parent[top_left] = top_right
                pairs.append((next_left, next_right))
                origin.append((index, position))
        index += 1
    return None


def _state_moves(fsp: FSP, *states: str) -> tuple[MacroMoves, list[int]]:
    """The language moves of ``fsp`` and the tau-closure bitset of each named state."""
    kernel = WeakKernel.from_fsp(fsp)
    closures = [kernel.closure_bits(kernel.state_index(state)) for state in states]
    return MacroMoves.from_fsp(fsp, kernel), closures


def _everything(symbols: Sequence[str]) -> MacroMoves:
    """The moves of ``Sigma*``: one accepting state looping on every symbol."""
    loops = LTS(["*"], symbols, [(0, action, 0) for action in range(len(symbols))])
    moves = MacroMoves(loops, [1], symbols, bool)
    moves.start(0)
    return moves


def language_equivalent(fsp: FSP, first: str, second: str, max_states: int | None = None) -> bool:
    """Decide ``L(first) = L(second)`` for two states of the same FSP.

    On the restricted model this is exactly ``approx_1`` (Proposition
    2.2.3(b)).  One :func:`subset_search`, exponential in the worst case,
    matching the PSPACE-completeness of the problem; ``max_states`` bounds
    the macrostates it visits on either side.
    """
    return language_distinguishing_word(fsp, first, second, max_states) is None


def language_equivalent_processes(first: FSP, second: FSP, max_states: int | None = None) -> bool:
    """Decide ``L(p0) = L(q0)`` for the start states of two FSPs.

    A thin shim over the engine facade (:mod:`repro.engine`): the check is
    :func:`subset_search` over each process's cached :class:`MacroMoves`,
    so repeated checks against the same process reuse the subset moves
    already explored; ``max_states`` bounds the macrostates it visits.
    """
    from repro.engine import default_engine

    return default_engine().check(
        first, second, "language", witness=False, max_states=max_states
    ).equivalent


def language_distinguishing_word(
    fsp: FSP, first: str, second: str, max_states: int | None = None
) -> tuple[str, ...] | None:
    """A shortest word in exactly one of ``L(first)``, ``L(second)``, or None when equal."""
    moves, (left, right) = _state_moves(fsp, first, second)
    found = subset_search(moves, moves, (moves.intern(left), moves.intern(right)), max_states)
    return None if found is None else found[0]


def language_included(fsp: FSP, first: str, second: str, max_states: int | None = None) -> bool:
    """Decide ``L(first)`` is a subset of ``L(second)``.

    That is ``L(first) | L(second) = L(second)``: one :func:`subset_search`
    from the union of the two closures against the closure of ``second``.
    Its left side visits unions of the two sides' macrostates, so
    ``max_states`` may be exceeded where determinising each side within it
    would not be.
    """
    moves, (left, right) = _state_moves(fsp, first, second)
    starts = moves.intern(left | right), moves.intern(right)
    return subset_search(moves, moves, starts, max_states) is None


def is_universal(fsp: FSP, start: str | None = None, max_states: int | None = None) -> bool:
    """Decide ``L(start) = Sigma*`` -- the problem the hardness reductions start from."""
    return universality_counterexample(fsp, start, max_states) is None


def universality_counterexample(
    fsp: FSP, start: str | None = None, max_states: int | None = None
) -> tuple[str, ...] | None:
    """A shortest observable string not in ``L(start)``, or None when universal.

    One :func:`subset_search` against the one-state, all-accepting table of
    ``Sigma*``; ``max_states`` bounds the macrostates it visits.
    """
    moves, (closure,) = _state_moves(fsp, fsp.start if start is None else start)
    found = subset_search(moves, _everything(moves.symbols), (moves.intern(closure), 0), max_states)
    return None if found is None else found[0]


def accepted_strings_upto(
    fsp: FSP, length: int, start: str | None = None
) -> frozenset[tuple[str, ...]]:
    """All accepted observable strings up to the given length (exhaustive; for tests)."""
    return language_nfa(fsp, start).language_upto(length)


def traces_upto(fsp: FSP, length: int, start: str | None = None) -> frozenset[tuple[str, ...]]:
    """All observable traces (strings with *some* derivative) up to ``length``.

    For restricted processes traces and accepted strings coincide because
    every state is accepting; for standard processes they differ and give the
    classical trace preorder used in the discussion of Section 2.2.
    """
    nfa = language_nfa(fsp, start, accepting=fsp.states)
    return nfa.language_upto(length)
