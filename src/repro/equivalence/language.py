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

The engine's language check is :func:`language_search`: the AHU union-find
procedure (Hopcroft-Karp) the paper cites, run on the fly over
:class:`MacroMoves` -- tau-closed macrostates as Python-int bitsets over a
:class:`~repro.core.weak.WeakKernel` -- so neither side is determinised or
minimised beyond the pairs the search visits, and it stops at the first
word one side accepts and the other does not.  The determinise-and-compare
routes below (:func:`language_dfa`, the ``nfa_*`` deciders) stay for the
API and as the tests' oracles.

Two automaton views are provided.  :func:`language_nfa` is the literal one
(tau-arcs become epsilon-arcs of the NFA); it is lazy -- O(m) arcs -- and is
what the one-shot deciders below use, since their subset constructions only
ever touch the reachable macro-states.  :func:`weak_language_nfa` is the
kernel-backed one: the arcs are the weak transitions read off a
:class:`~repro.core.weak.WeakKernel` and acceptance is lifted through the
tau-closure, so the automaton is *epsilon-free*.  Materialising those arcs
costs the full ``Theta(|Delta_hat|)`` saturation, which only pays when many
automata over the same process share one kernel -- the ``approx_k`` machinery
(:mod:`repro.equivalence.kobs`) builds one NFA per state/block pair and is
exactly that consumer.  The two views accept the same language.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.automata.dfa import DFA, determinize
from repro.automata.equivalence import (
    nfa_distinguishing_word,
    nfa_equivalent,
    nfa_included,
    nfa_universal,
    nfa_universality_counterexample,
)
from repro.automata.minimize import hopcroft_minimize
from repro.automata.nfa import NFA
from repro.core.errors import InvalidProcessError, StateSpaceLimitError
from repro.core.fsp import EPSILON, FSP, TAU
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


def weak_language_nfa(
    fsp: FSP,
    start: str | None = None,
    accepting: Iterable[str] | None = None,
    kernel: WeakKernel | None = None,
) -> NFA:
    """The *epsilon-free* NFA for ``L(start)``, built on the weak kernel.

    The arcs are the weak transitions ``p =>^a q`` (read off the tau-SCC +
    bitset engine of :mod:`repro.core.weak`) and a state accepts when its
    tau-closure meets the accepting set, so no epsilon moves remain.  The
    language is exactly that of :func:`language_nfa`; subset constructions on
    this view skip all epsilon-closure bookkeeping.

    Pass the process's ``kernel`` to share it across many automata over the
    same process: the ``approx_k`` machinery builds one NFA per state/block
    pair and reuses the kernel's cached weak arc set every time.

    Raises
    ------
    InvalidProcessError
        If the alphabet contains the :data:`~repro.core.fsp.EPSILON` marker:
        the weak language view is defined over observable actions, and on an
        already-saturated process the kernel's reserved reading of EPSILON
        (``=>^epsilon``, i.e. the tau-closure) and its reading as an ordinary
        letter would silently disagree.  This mirrors the collision check of
        ``saturate`` that guarded the pre-kernel ``approx_k`` route.
    """
    if EPSILON in fsp.alphabet:
        raise InvalidProcessError(
            f"the weak language view is undefined over the reserved marker {EPSILON!r}; "
            "pass the unsaturated process instead"
        )
    kernel = kernel if kernel is not None else WeakKernel.from_fsp(fsp)
    root = fsp.start if start is None else start
    accept_base = frozenset(accepting) if accepting is not None else fsp.accepting_states()
    accept_bits = 0
    for state in accept_base:
        accept_bits |= 1 << kernel.state_index(state)
    names = kernel.lts.state_names
    lifted = frozenset(name for i, name in enumerate(names) if kernel.closure_bits(i) & accept_bits)
    return NFA(
        states=fsp.states,
        start=root,
        alphabet=fsp.alphabet,
        transitions=kernel.weak_arc_triples(),
        accepting=lifted,
    )


def language_dfa(fsp: FSP, start: str | None = None, max_states: int | None = None) -> DFA:
    """The minimal DFA for ``L(start)`` (subset construction + Hopcroft)."""
    return hopcroft_minimize(determinize(language_nfa(fsp, start), max_states=max_states))


class MacroMoves:
    """The explored part of one process's subset automaton, over its weak kernel.

    A macrostate is a Python-int bitset over the kernel's states, closed
    under tau: the start macrostate (id 0) is the start state's tau-closure,
    and the ``a``-successor of ``M`` is the union of ``closure(t)`` over the
    ``a``-arcs ``s -a-> t`` leaving ``M``.  It accepts when it meets the
    accepting states.  Macrostates are interned to dense ids, and the
    successors of each are computed on first request and kept, so repeated
    searches over one process reuse every move they explored.
    """

    __slots__ = ("symbols", "accepting", "_closure", "_slot", "_arcs", "_ids", "_macros", "_moves")

    def __init__(self, kernel: WeakKernel, alphabet: Iterable[str], accepting: Iterable[str]):
        lts = kernel.lts
        self.symbols = tuple(sorted(alphabet))
        self.accepting = 0
        for state in accepting:
            self.accepting |= 1 << kernel.state_index(state)
        self._closure = [kernel.closure_bits(s) for s in range(lts.n)]
        position = {symbol: i for i, symbol in enumerate(self.symbols)}
        # tau (and any label outside the alphabet) lands in a spare last slot.
        slot = [position.get(name, len(self.symbols)) for name in lts.action_names]
        self._slot = [slot[a] for a in lts.fwd_actions]  # per arc
        self._arcs = lts.fwd_offsets.tolist(), lts.fwd_targets.tolist()
        self._ids: dict[int, int] = {}
        self._macros: list[tuple[int, bool]] = []
        self._moves: dict[int, tuple[int, ...]] = {}
        self.intern(self._closure[lts.start])

    @classmethod
    def from_fsp(cls, fsp: FSP, kernel: WeakKernel | None = None) -> "MacroMoves":
        """The macro-moves of ``L(fsp.start)``, over ``kernel`` when given."""
        kernel = kernel if kernel is not None else WeakKernel.from_fsp(fsp)
        return cls(kernel, fsp.alphabet, fsp.accepting_states())

    def __len__(self) -> int:
        """The number of macrostates interned so far."""
        return len(self._ids)

    def intern(self, bits: int) -> int:
        """The id of the macrostate ``bits`` (a new one on first sight)."""
        macro = self._ids.get(bits)
        if macro is None:
            # The record goes in before the index: an interrupted intern
            # leaves an unreferenced record, never a dangling id.
            self._macros.append((bits, bool(bits & self.accepting)))
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


def language_search(
    left: MacroMoves, right: MacroMoves, max_states: int | None = None
) -> tuple[tuple[str, ...], bool] | None:
    """Hopcroft-Karp on the fly: a shortest word in exactly one language, or None.

    Pairs of macrostates reached by the same word are merged in a union-find
    over ``(side, macrostate)``, breadth-first from the pair of start
    closures; a pair whose two sides are already merged is not explored
    again.  The search stops at the first pair that disagrees on
    acceptance and returns the word leading to it, with whether the left
    side accepts it.  Breadth-first order makes that word a shortest one.
    Neither automaton is determinised or minimised beyond what the search
    visits (the AHU procedure the paper cites needs neither).

    ``max_states`` bounds the non-empty macrostates the search may reach on
    either side; going beyond it raises
    :class:`~repro.core.errors.StateSpaceLimitError`.  Only reached
    macrostates count, so a search answers whenever full determinisation
    within the bound would.
    """
    if left.symbols != right.symbols:
        raise InvalidProcessError("language comparison requires identical alphabets")
    symbols = left.symbols
    # Union-find nodes: left macrostate i is 2i, right macrostate j is 2j + 1.
    parent: dict[int, int] = {0: 1}
    pairs = [(0, 0)]
    origin = [(-1, -1)]
    seen: tuple[set[int], set[int]] = ({0}, {0})
    empty = (left.intern(0), right.intern(0))

    def root(node: int) -> int:
        up = parent.get(node, node)
        while up != node:
            parent[node] = node = parent.get(up, up)
            up = parent.get(node, node)
        return node

    # (bits, accepts) per macrostate id, read directly in the hot loop.
    left_macros, right_macros = left._macros, right._macros
    index = 0
    while index < len(pairs):
        macro_left, macro_right = pairs[index]
        left_accepts = left_macros[macro_left][1]
        if left_accepts != right_macros[macro_right][1]:
            word: list[str] = []
            while index > 0:
                index, position = origin[index]
                word.append(symbols[position])
            return tuple(reversed(word)), left_accepts
        following = zip(left.successors(macro_left), right.successors(macro_right))
        for position, (next_left, next_right) in enumerate(following):
            top_left, top_right = root(2 * next_left), root(2 * next_right + 1)
            if top_left == top_right:
                continue
            parent[top_left] = top_right
            pairs.append((next_left, next_right))
            origin.append((index, position))
            if max_states is None:
                continue
            for side, macro in ((0, next_left), (1, next_right)):
                if macro != empty[side] and macro not in seen[side]:
                    seen[side].add(macro)
                    if len(seen[side]) > max_states:
                        raise StateSpaceLimitError(
                            f"language search exceeded {max_states} macro-states"
                        )
        index += 1
    return None


def language_equivalent(fsp: FSP, first: str, second: str, max_states: int | None = None) -> bool:
    """Decide ``L(first) = L(second)`` for two states of the same FSP.

    On the restricted model this is exactly ``approx_1`` (Proposition
    2.2.3(b)); the decision determinises both automata and is exponential in
    the worst case, matching the PSPACE-completeness of the problem.
    """
    left = language_nfa(fsp, first)
    right = language_nfa(fsp, second)
    return nfa_equivalent(left, right, max_states=max_states)


def language_equivalent_processes(first: FSP, second: FSP, max_states: int | None = None) -> bool:
    """Decide ``L(p0) = L(q0)`` for the start states of two FSPs.

    A thin shim over the engine facade (:mod:`repro.engine`): the check is
    :func:`language_search` over each process's cached :class:`MacroMoves`,
    so repeated checks against the same process reuse the subset moves
    already explored; ``max_states`` bounds the macrostates it reaches.
    """
    from repro.engine import default_engine

    return default_engine().check(
        first, second, "language", witness=False, max_states=max_states
    ).equivalent


def language_distinguishing_word(
    fsp: FSP, first: str, second: str, max_states: int | None = None
) -> tuple[str, ...] | None:
    """A word in exactly one of ``L(first)``, ``L(second)``, or None when equal."""
    return nfa_distinguishing_word(
        language_nfa(fsp, first), language_nfa(fsp, second), max_states=max_states
    )


def language_included(fsp: FSP, first: str, second: str, max_states: int | None = None) -> bool:
    """Decide ``L(first)`` is a subset of ``L(second)``."""
    return nfa_included(language_nfa(fsp, first), language_nfa(fsp, second), max_states=max_states)


def is_universal(fsp: FSP, start: str | None = None, max_states: int | None = None) -> bool:
    """Decide ``L(start) = Sigma*`` -- the problem the hardness reductions start from."""
    return nfa_universal(language_nfa(fsp, start), max_states=max_states)


def universality_counterexample(
    fsp: FSP, start: str | None = None, max_states: int | None = None
) -> tuple[str, ...] | None:
    """A shortest observable string not in ``L(start)``, or None when universal."""
    return nfa_universality_counterexample(language_nfa(fsp, start), max_states=max_states)


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
