"""Deterministic finite automata and the subset construction.

The classical counterpart of the paper's equivalences lives here: ``approx_1``
for standard FSPs is NFA language equivalence (Proposition 2.2.3(b)), and
Proposition 2.2.4 reduces every equivalence of the paper to DFA equivalence
on the deterministic model.  The library decides both without building a
DFA (:func:`repro.equivalence.language.subset_search`); the full subset
construction below builds :meth:`repro.engine.Process.language_dfa` and the
tests' determinised oracle.

A :class:`DFA` here is always *complete*: a (possibly implicit) dead state
guarantees that every state has exactly one transition per symbol.  States of
determinised automata are canonical frozensets of NFA states rendered as
sorted, comma-joined strings so that they stay hashable and readable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.automata.nfa import NFA
from repro.core.errors import InvalidProcessError, StateSpaceLimitError

#: Name of the implicit dead (sink) state added when completing a DFA.
DEAD_STATE = "__dead__"


class DFA:
    """A complete deterministic finite automaton."""

    __slots__ = ("_states", "_start", "_alphabet", "_delta", "_accepting")

    def __init__(
        self,
        states: Iterable[str],
        start: str,
        alphabet: Iterable[str],
        delta: Mapping[tuple[str, str], str],
        accepting: Iterable[str],
    ) -> None:
        self._states = frozenset(states)
        self._start = start
        self._alphabet = frozenset(alphabet)
        self._delta = dict(delta)
        self._accepting = frozenset(accepting)
        if self._start not in self._states:
            raise InvalidProcessError(f"start state {start!r} is not a state")
        if not self._accepting <= self._states:
            raise InvalidProcessError("accepting states must be states")
        for state in self._states:
            for symbol in self._alphabet:
                target = self._delta.get((state, symbol))
                if target is None:
                    raise InvalidProcessError(
                        f"DFA is not complete: no transition from {state!r} on {symbol!r}"
                    )
                if target not in self._states:
                    raise InvalidProcessError(
                        f"transition from {state!r} on {symbol!r} leads to unknown state {target!r}"
                    )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def states(self) -> frozenset[str]:
        return self._states

    @property
    def start(self) -> str:
        return self._start

    @property
    def alphabet(self) -> frozenset[str]:
        return self._alphabet

    @property
    def accepting(self) -> frozenset[str]:
        return self._accepting

    def transition(self, state: str, symbol: str) -> str:
        """The unique successor of ``state`` on ``symbol``."""
        return self._delta[(state, symbol)]

    def accepts(self, word: Sequence[str]) -> bool:
        """Whether the DFA accepts ``word``."""
        state = self._start
        for symbol in word:
            if symbol not in self._alphabet:
                return False
            state = self._delta[(state, symbol)]
        return state in self._accepting

    def reachable_states(self) -> frozenset[str]:
        seen = {self._start}
        frontier = [self._start]
        while frontier:
            state = frontier.pop()
            for symbol in self._alphabet:
                nxt = self._delta[(state, symbol)]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def restrict_to_reachable(self) -> "DFA":
        keep = self.reachable_states()
        return DFA(
            states=keep,
            start=self._start,
            alphabet=self._alphabet,
            delta={key: value for key, value in self._delta.items() if key[0] in keep},
            accepting=self._accepting & keep,
        )

    def __repr__(self) -> str:
        return (
            f"DFA(states={len(self._states)}, alphabet={sorted(self._alphabet)}, "
            f"accepting={len(self._accepting)})"
        )


def _macro_name(states: frozenset[str]) -> str:
    return "{" + ",".join(sorted(states)) + "}" if states else DEAD_STATE


def determinize(nfa: NFA, max_states: int | None = None) -> DFA:
    """The subset construction.

    Parameters
    ----------
    nfa:
        The automaton to determinise.
    max_states:
        Optional guard on the number of macro-states; the construction is
        exponential in the worst case (that worst case is exactly what the
        PSPACE-hardness results of Sections 4 and 5 exploit), so callers that
        cannot afford a blow-up should set a limit.

    Raises
    ------
    StateSpaceLimitError
        When the subset construction exceeds ``max_states`` macro-states.
    """
    start_macro = nfa.epsilon_closure({nfa.start})
    alphabet = sorted(nfa.alphabet)
    macro_states: dict[frozenset[str], str] = {start_macro: _macro_name(start_macro)}
    delta: dict[tuple[str, str], str] = {}
    accepting: set[str] = set()
    frontier = [start_macro]
    dead_needed = False
    while frontier:
        macro = frontier.pop()
        name = macro_states[macro]
        if macro & nfa.accepting:
            accepting.add(name)
        for symbol in alphabet:
            target = nfa.step(macro, symbol)
            if not target:
                dead_needed = True
                delta[(name, symbol)] = DEAD_STATE
                continue
            if target not in macro_states:
                macro_states[target] = _macro_name(target)
                frontier.append(target)
                if max_states is not None and len(macro_states) > max_states:
                    raise StateSpaceLimitError(
                        f"subset construction exceeded {max_states} macro-states"
                    )
            delta[(name, symbol)] = macro_states[target]
    states = set(macro_states.values())
    if dead_needed:
        states.add(DEAD_STATE)
        for symbol in alphabet:
            delta[(DEAD_STATE, symbol)] = DEAD_STATE
    return DFA(
        states=states,
        start=_macro_name(start_macro),
        alphabet=nfa.alphabet,
        delta=delta,
        accepting=accepting,
    )
