"""Finite State Processes (FSPs) -- Definition 2.1.1 of Kanellakis & Smolka.

An FSP is a sextuple ``(K, p0, Sigma, Delta, V, E)`` where

* ``K`` is a finite set of states,
* ``p0`` is the start state,
* ``Sigma`` is a finite set of *actions* and ``tau`` (written :data:`TAU`) is a
  distinguished unobservable action not in ``Sigma``,
* ``Delta`` is the transition relation, a subset of
  ``K x (Sigma u {tau}) x K``,
* ``V`` is a finite set of *variables* disjoint from ``Sigma u {tau}``,
* ``E`` is the extension relation, a subset of ``K x V``.

Extensions generalise the accept/non-accept distinction of classical automata:
in the *standard* model ``V = {x}`` and a state is accepting exactly when its
extension set is ``{x}``.

The class :class:`FSP` below is an immutable value object.  Construction
validates the sextuple and hashes it, nothing more: the map from each state
to its extension set, behind :meth:`FSP.extension`, and the successor index
behind :meth:`FSP.successors`, :meth:`FSP.transitions_from`,
:meth:`FSP.enabled_actions` and :meth:`FSP.reachable_states` are each built
on the first query that needs them.  The engine and the
partition-refinement algorithms run on the integer kernel of
:mod:`repro.core.lts` and never ask, so a decoded operand pays only for what
is read.  :func:`repro.utils.serialization.from_dict` checks a wire document
while it interns it into that kernel, and the FSP it returns carries the
kernel for :meth:`repro.core.lts.LTS.from_fsp` to hand out.  Use
:class:`FSPBuilder` or the convenience constructors for incremental
construction.

Example
-------

A freshly decoded process answers its first successor query:

>>> from repro.utils.serialization import from_dict
>>> process = from_dict({
...     "format": "repro-fsp", "version": 1,
...     "states": ["p", "q"], "start": "p", "alphabet": ["a"],
...     "transitions": [["p", "a", "q"], ["q", TAU, "p"]],
...     "extensions": [["q", ACCEPT]],
... })
>>> sorted(process.successors("p", "a")), sorted(process.transitions_from("q"))
(['q'], [('τ', 'p')])
>>> process.is_accepting("q"), sorted(process.reachable_states())
(True, ['p', 'q'])
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Any

from repro.core.errors import InvalidProcessError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.lts import LTS

#: The unobservable action of CCS.  It is deliberately *not* a member of the
#: action alphabet ``Sigma`` of any FSP; the transition relation ranges over
#: ``Sigma u {TAU}``.
TAU = "τ"

#: The variable used by the *standard* model (Definition 2.1.1 / Section 2.1):
#: a state ``q`` of a standard FSP is accepting iff ``E(q) == {ACCEPT}``.
ACCEPT = "x"

#: Marker action used by :func:`repro.core.derivatives.saturate` for the
#: ``=>^epsilon`` relation of Theorem 4.1(a).  It never occurs in user-built
#: processes.
EPSILON = "ε"

State = str
Action = str
Variable = str
Transition = tuple[State, Action, State]
#: ``(succ, out_actions)``: see :meth:`FSP._successor_index`.
_SuccessorIndex = tuple[
    dict[tuple[State, Action], frozenset[State]], dict[State, frozenset[Action]]
]


def _freeze_str_set(values: Iterable[str], what: str) -> frozenset[str]:
    out = frozenset(values)
    for value in out:
        if not isinstance(value, str) or not value:
            raise InvalidProcessError(f"{what} must be non-empty strings, got {value!r}")
    return out


class FSP:
    """An immutable finite state process.

    Parameters
    ----------
    states:
        The state set ``K``.  States are identified by non-empty strings.
    start:
        The start state ``p0``; must be a member of ``states``.
    alphabet:
        The observable action alphabet ``Sigma``.  Must not contain
        :data:`TAU` or :data:`EPSILON`.
    transitions:
        The transition relation ``Delta`` as ``(source, action, target)``
        triples.  Actions must lie in ``alphabet | {TAU}``.
    variables:
        The variable set ``V``.  Defaults to ``{ACCEPT}`` (the standard model).
    extensions:
        The extension relation ``E`` as ``(state, variable)`` pairs.

    Raises
    ------
    InvalidProcessError
        If any structural constraint of Definition 2.1.1 is violated.
    """

    __slots__ = (
        "_states",
        "_start",
        "_alphabet",
        "_transitions",
        "_variables",
        "_extensions",
        "_index",
        "_pred",
        "_ext_map",
        "_kernel",
        "_hash",
    )

    def __init__(
        self,
        states: Iterable[State],
        start: State,
        alphabet: Iterable[Action],
        transitions: Iterable[Transition],
        variables: Iterable[Variable] = (ACCEPT,),
        extensions: Iterable[tuple[State, Variable]] = (),
    ) -> None:
        self._states = _freeze_str_set(states, "states")
        self._alphabet = _freeze_str_set(alphabet, "actions") if alphabet else frozenset()
        self._variables = _freeze_str_set(variables, "variables") if variables else frozenset()
        self._transitions = frozenset(
            (str(src), str(act), str(dst)) for src, act, dst in transitions
        )
        self._extensions = frozenset((str(state), str(var)) for state, var in extensions)
        self._start = str(start)
        self._validate()
        self._derive(None)

    @classmethod
    def _adopt(
        cls,
        states: frozenset[State],
        start: State,
        alphabet: frozenset[Action],
        transitions: frozenset[Transition],
        variables: frozenset[Variable],
        extensions: frozenset[tuple[State, Variable]],
        kernel: LTS,
    ) -> "FSP":
        """An FSP over components already checked, carrying their interned kernel.

        The caller vouches for Definition 2.1.1 and for ``kernel`` being
        ``LTS.from_fsp(fsp, include_tau=True)`` of the result; this is the
        decoder's exit (:func:`repro.utils.serialization.from_dict`).
        """
        fsp = cls.__new__(cls)
        fsp._states, fsp._start, fsp._alphabet = states, start, alphabet
        fsp._transitions, fsp._variables, fsp._extensions = transitions, variables, extensions
        fsp._derive(kernel)
        return fsp

    def _derive(self, kernel: LTS | None) -> None:
        """Reset the derived slots and hash the sextuple.

        The extension map (:meth:`_extension_map`), the successor index
        (:meth:`_successor_index`) and its mirror image ``_pred``
        (:meth:`predecessors`) are built on first use: the engine and the
        solvers walk the integer kernel instead, which ``_kernel`` holds
        when the decoder has already built it.
        """
        self._index: _SuccessorIndex | None = None
        self._pred: dict[tuple[State, Action], frozenset[State]] | None = None
        self._ext_map: dict[State, frozenset[Variable]] | None = None
        self._kernel = kernel
        self._hash = hash(
            (self._states, self._start, self._alphabet, self._transitions, self._extensions)
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._states:
            raise InvalidProcessError("an FSP needs at least one state")
        if self._start not in self._states:
            raise InvalidProcessError(
                f"start state {self._start!r} is not a member of the state set"
            )
        if TAU in self._alphabet:
            raise InvalidProcessError(
                f"the action alphabet may not contain the unobservable action {TAU!r}"
            )
        if self._variables & (self._alphabet | {TAU}):
            raise InvalidProcessError("variables must be disjoint from the actions and tau")
        allowed_actions = self._alphabet | {TAU}
        for src, act, dst in self._transitions:
            if src not in self._states:
                raise InvalidProcessError(f"transition source {src!r} is not a state")
            if dst not in self._states:
                raise InvalidProcessError(f"transition target {dst!r} is not a state")
            if act not in allowed_actions:
                raise InvalidProcessError(
                    f"transition action {act!r} is not in the alphabet or tau"
                )
        for state, var in self._extensions:
            if state not in self._states:
                raise InvalidProcessError(f"extension state {state!r} is not a state")
            if var not in self._variables:
                raise InvalidProcessError(f"extension variable {var!r} is not in V")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def states(self) -> frozenset[State]:
        """The state set ``K``."""
        return self._states

    @property
    def start(self) -> State:
        """The start state ``p0``."""
        return self._start

    @property
    def alphabet(self) -> frozenset[Action]:
        """The observable action alphabet ``Sigma`` (never contains tau)."""
        return self._alphabet

    @property
    def transitions(self) -> frozenset[Transition]:
        """The transition relation ``Delta``."""
        return self._transitions

    @property
    def variables(self) -> frozenset[Variable]:
        """The variable set ``V``."""
        return self._variables

    @property
    def extensions(self) -> frozenset[tuple[State, Variable]]:
        """The extension relation ``E``."""
        return self._extensions

    @property
    def num_states(self) -> int:
        """``|K|`` -- the ``n`` of the paper's complexity bounds."""
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        """``|Delta|`` -- the ``m`` of the paper's complexity bounds."""
        return len(self._transitions)

    # ------------------------------------------------------------------
    # relational accessors (the Delta(q), E(q), Delta(q, a) of Section 2.1)
    # ------------------------------------------------------------------
    def _successor_index(self) -> _SuccessorIndex:
        """``(succ, out_actions)``, built on the first query that needs it.

        ``succ`` maps ``(state, action)`` to the frozenset of successor
        states; ``out_actions`` maps every state to the actions labelling its
        outgoing transitions.  Both are filled in locals and published with
        one assignment: a deadline may preempt the build at any bytecode
        boundary, and must leave an FSP that builds the index afresh.
        """
        index = self._index
        if index is None:
            succ: dict[tuple[State, Action], set[State]] = {}
            out_actions: dict[State, set[Action]] = {state: set() for state in self._states}
            for src, act, dst in self._transitions:
                succ.setdefault((src, act), set()).add(dst)
                out_actions[src].add(act)
            index = self._index = (
                {key: frozenset(val) for key, val in succ.items()},
                {state: frozenset(acts) for state, acts in out_actions.items()},
            )
        return index

    def successors(self, state: State, action: Action) -> frozenset[State]:
        """``Delta(q, a)`` -- the destinations of ``state`` via ``action``."""
        return self._successor_index()[0].get((state, action), frozenset())

    def predecessors(self, state: State, action: Action) -> frozenset[State]:
        """The sources of ``action``-transitions into ``state``."""
        if self._pred is None:
            pred: dict[tuple[State, Action], set[State]] = {}
            for src, act, dst in self._transitions:
                pred.setdefault((dst, act), set()).add(src)
            self._pred = {key: frozenset(val) for key, val in pred.items()}
        return self._pred.get((state, action), frozenset())

    def transitions_from(self, state: State) -> frozenset[tuple[Action, State]]:
        """``Delta(q)`` -- the set of ``(action, destination)`` pairs from ``state``."""
        succ, out_actions = self._successor_index()
        return frozenset(
            (action, dst) for action in out_actions.get(state, ()) for dst in succ[state, action]
        )

    def _extension_map(self) -> dict[State, frozenset[Variable]]:
        """Each state's extension set, built on the first query that needs it.

        Filled in a local and published with one assignment, like
        :meth:`_successor_index`.
        """
        ext_map = self._ext_map
        if ext_map is None:
            sets: dict[State, set[Variable]] = {state: set() for state in self._states}
            for state, var in self._extensions:
                sets[state].add(var)
            ext_map = self._ext_map = {state: frozenset(vs) for state, vs in sets.items()}
        return ext_map

    def extension(self, state: State) -> frozenset[Variable]:
        """``E(q)`` -- the extension set of ``state``."""
        if state not in self._states:
            raise InvalidProcessError(f"{state!r} is not a state of this FSP")
        return self._extension_map()[state]

    def enabled_actions(self, state: State) -> frozenset[Action]:
        """The actions (possibly including tau) labelling outgoing transitions."""
        return self._successor_index()[1].get(state, frozenset())

    def is_accepting(self, state: State) -> bool:
        """Whether ``state`` is accepting in the standard-model reading.

        A state is accepting when :data:`ACCEPT` belongs to its extension set.
        For non-standard processes this still gives a meaningful predicate but
        the classical language-theoretic interpretation only applies to the
        standard model.
        """
        return ACCEPT in self.extension(state)

    def accepting_states(self) -> frozenset[State]:
        """All states whose extension contains :data:`ACCEPT`."""
        return frozenset(state for state in self._states if self.is_accepting(state))

    def has_tau(self) -> bool:
        """Whether any transition is labelled with the unobservable action."""
        return any(act == TAU for _, act, _ in self._transitions)

    # ------------------------------------------------------------------
    # graph-level operations
    # ------------------------------------------------------------------
    def reachable_states(self, origin: State | None = None) -> frozenset[State]:
        """The states reachable from ``origin`` (default: the start state)."""
        root = self._start if origin is None else origin
        if root not in self._states:
            raise InvalidProcessError(f"{root!r} is not a state of this FSP")
        succ, out_actions = self._successor_index()
        seen = {root}
        frontier = [root]
        while frontier:
            state = frontier.pop()
            for action in out_actions[state]:
                for nxt in succ[state, action]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return frozenset(seen)

    def restrict_to_reachable(self, origin: State | None = None) -> "FSP":
        """Return the sub-process induced by the states reachable from ``origin``."""
        keep = self.reachable_states(origin)
        root = self._start if origin is None else origin
        return FSP(
            states=keep,
            start=root,
            alphabet=self._alphabet,
            transitions=[t for t in self._transitions if t[0] in keep and t[2] in keep],
            variables=self._variables,
            extensions=[e for e in self._extensions if e[0] in keep],
        )

    def rename_states(
        self, mapping: Mapping[State, State] | None = None, prefix: str = ""
    ) -> "FSP":
        """Return an isomorphic copy with renamed states.

        If ``mapping`` is given it must be a bijection on the state set.  If it
        is omitted, every state ``q`` is renamed to ``prefix + q``.
        """
        if mapping is None:
            mapping = {state: f"{prefix}{state}" for state in self._states}
        if set(mapping) != set(self._states):
            raise InvalidProcessError("state renaming must cover exactly the state set")
        if len(set(mapping.values())) != len(self._states):
            raise InvalidProcessError("state renaming must be injective")
        return FSP(
            states=[mapping[q] for q in self._states],
            start=mapping[self._start],
            alphabet=self._alphabet,
            transitions=[(mapping[s], a, mapping[d]) for s, a, d in self._transitions],
            variables=self._variables,
            extensions=[(mapping[q], v) for q, v in self._extensions],
        )

    def with_start(self, start: State) -> "FSP":
        """Return the same process rooted at a different start state."""
        if start not in self._states:
            raise InvalidProcessError(f"{start!r} is not a state of this FSP")
        return FSP(
            states=self._states,
            start=start,
            alphabet=self._alphabet,
            transitions=self._transitions,
            variables=self._variables,
            extensions=self._extensions,
        )

    def with_alphabet(self, alphabet: Iterable[Action]) -> "FSP":
        """Return the same process over a (super-)alphabet.

        Useful when two processes must agree on ``Sigma`` before an
        equivalence check (the paper always compares states of FSPs *having
        the same Sigma and V*).
        """
        new_alphabet = frozenset(alphabet)
        used = {act for _, act, _ in self._transitions if act != TAU}
        if not used <= new_alphabet:
            raise InvalidProcessError(
                f"new alphabet {sorted(new_alphabet)} does not cover used actions {sorted(used)}"
            )
        return FSP(
            states=self._states,
            start=self._start,
            alphabet=new_alphabet,
            transitions=self._transitions,
            variables=self._variables,
            extensions=self._extensions,
        )

    def disjoint_union(self, other: "FSP", prefixes: tuple[str, str] = ("L:", "R:")) -> "FSP":
        """Combine two FSPs into one over the union of their components.

        The paper always speaks of equivalence of *states* and notes that two
        states of distinct FSPs can be compared by viewing them inside a single
        process.  The returned process has states ``L:q`` for states of
        ``self`` and ``R:q`` for states of ``other``; its start state is the
        (renamed) start state of ``self``.

        Returns
        -------
        FSP
            The combined process.  Use ``combined.with_start("R:" + other.start)``
            to root it at the other operand.
        """
        left = self.rename_states(prefix=prefixes[0])
        right = other.rename_states(prefix=prefixes[1])
        return FSP(
            states=left.states | right.states,
            start=left.start,
            alphabet=self._alphabet | other._alphabet,
            transitions=left.transitions | right.transitions,
            variables=self._variables | other._variables,
            extensions=left.extensions | right.extensions,
        )

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, FSP):
            return NotImplemented
        return (
            self._states == other._states
            and self._start == other._start
            and self._alphabet == other._alphabet
            and self._transitions == other._transitions
            and self._variables == other._variables
            and self._extensions == other._extensions
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> tuple:
        """Pickle the sextuple alone: derived slots and the kernel rebuild on demand."""
        return (
            self._states,
            self._start,
            self._alphabet,
            self._transitions,
            self._variables,
            self._extensions,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self._states,
            self._start,
            self._alphabet,
            self._transitions,
            self._variables,
            self._extensions,
        ) = state
        self._derive(None)

    def __repr__(self) -> str:
        return (
            f"FSP(states={self.num_states}, transitions={self.num_transitions}, "
            f"alphabet={sorted(self._alphabet)}, start={self._start!r})"
        )

    def describe(self) -> str:
        """A multi-line human-readable rendering of the process."""
        lines = [f"FSP with {self.num_states} states over {sorted(self._alphabet)}"]
        lines.append(f"  start: {self._start}")
        for state in sorted(self._states):
            ext = sorted(self.extension(state))
            marker = f"  {{{', '.join(ext)}}}" if ext else ""
            lines.append(f"  state {state}{marker}")
            for action, dst in sorted(self.transitions_from(state)):
                lines.append(f"    --{action}--> {dst}")
        return "\n".join(lines)


class FSPBuilder:
    """Mutable helper for constructing :class:`FSP` instances incrementally.

    Example
    -------
    Every adder returns the builder, so calls chain:

    >>> builder = FSPBuilder(alphabet={"a", "b"})
    >>> process = (
    ...     builder.add_transition("p", "a", "q")
    ...     .add_transition("q", "b", "p")
    ...     .mark_accepting("p")
    ...     .build(start="p")
    ... )
    >>> sorted(process.states), sorted(process.accepting_states())
    (['p', 'q'], ['p'])

    States referenced by transitions or extensions are added automatically;
    :meth:`add_state` is only needed for isolated states.
    """

    def __init__(
        self,
        alphabet: Iterable[Action] = (),
        variables: Iterable[Variable] = (ACCEPT,),
    ) -> None:
        self._states: set[State] = set()
        self._alphabet: set[Action] = set(alphabet)
        self._variables: set[Variable] = set(variables)
        self._transitions: set[Transition] = set()
        self._extensions: set[tuple[State, Variable]] = set()

    def add_state(self, state: State) -> "FSPBuilder":
        """Declare a state (no-op if already present)."""
        self._states.add(str(state))
        return self

    def add_action(self, action: Action) -> "FSPBuilder":
        """Add an action to the alphabet without adding a transition."""
        if action != TAU:
            self._alphabet.add(str(action))
        return self

    def add_transition(self, src: State, action: Action, dst: State) -> "FSPBuilder":
        """Add a transition; the action is added to the alphabet unless it is tau."""
        src, dst = str(src), str(dst)
        self._states.update((src, dst))
        if action != TAU:
            self._alphabet.add(str(action))
        self._transitions.add((src, str(action), dst))
        return self

    def add_extension(self, state: State, variable: Variable) -> "FSPBuilder":
        """Attach a variable to a state's extension set."""
        state = str(state)
        self._states.add(state)
        self._variables.add(str(variable))
        self._extensions.add((state, str(variable)))
        return self

    def mark_accepting(self, *states: State) -> "FSPBuilder":
        """Mark states as accepting in the standard-model sense."""
        for state in states:
            self.add_extension(state, ACCEPT)
        return self

    def mark_all_accepting(self) -> "FSPBuilder":
        """Mark every declared state accepting (the *restricted* model)."""
        for state in list(self._states):
            self.add_extension(state, ACCEPT)
        return self

    def build(self, start: State) -> FSP:
        """Finish construction and return the immutable :class:`FSP`."""
        start = str(start)
        self._states.add(start)
        return FSP(
            states=self._states,
            start=start,
            alphabet=self._alphabet,
            transitions=self._transitions,
            variables=self._variables,
            extensions=self._extensions,
        )


# ----------------------------------------------------------------------
# Convenience constructors used across examples, tests and reductions.
# ----------------------------------------------------------------------
def single_state_process(
    alphabet: Iterable[Action] = (),
    accepting: bool = True,
    name: State = "p0",
) -> FSP:
    """A one-state process with no transitions.

    With ``accepting=True`` this is the representative FSP of the empty star
    expression (Definition 2.3.1, case ``r = emptyset``) -- a single accepting
    state with no moves.
    """
    extensions = [(name, ACCEPT)] if accepting else []
    return FSP(
        states=[name],
        start=name,
        alphabet=alphabet,
        transitions=[],
        extensions=extensions,
    )


def from_transitions(
    transitions: Iterable[Transition],
    start: State,
    accepting: Iterable[State] = (),
    alphabet: Iterable[Action] = (),
    all_accepting: bool = False,
) -> FSP:
    """Build an FSP from a transition list.

    Parameters
    ----------
    transitions:
        ``(source, action, target)`` triples; ``TAU`` is allowed as an action.
    start:
        The start state.
    accepting:
        States to mark accepting; ignored when ``all_accepting`` is true.
    alphabet:
        Extra actions to include in ``Sigma`` beyond those appearing on
        transitions.
    all_accepting:
        Mark every state accepting (producing a *restricted* process).
    """
    builder = FSPBuilder(alphabet=alphabet)
    builder.add_state(start)
    for src, action, dst in transitions:
        builder.add_transition(src, action, dst)
    if all_accepting:
        builder.mark_all_accepting()
    else:
        builder.mark_accepting(*accepting)
    return builder.build(start=start)
