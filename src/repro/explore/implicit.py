"""Implicit labelled transition systems: state spaces defined by successor functions.

Section 6 of Kanellakis-Smolka extends star expressions with CCS composition,
whose "direct product of states" semantics is exactly where state explosion
lives: the reachable product of ``k`` components can be exponentially larger
than any component.  An eager route (``ccs.semantics.compile_to_fsp``, or
:func:`materialize` of a lazy product) builds that whole product *before*
an equivalence question is even asked.

An :class:`ImplicitLTS` instead describes a state space by an initial state
and a successor function; states are arbitrary hashable values and nothing is
enumerated until somebody asks.  The on-the-fly checker
(:mod:`repro.explore.onthefly`) and the lazy products
(:mod:`repro.explore.products`) work directly on this interface, so a system
with :math:`10^6` product states can be decided while touching a few hundred
of them.

Two bridge adapters connect the implicit world to the existing one:

* :class:`FSPAdapter` views an eager :class:`~repro.core.fsp.FSP` as an
  implicit system (its states are already explicit, but the interface is
  uniform);
* :class:`CCSAdapter` explores a CCS term by direct SOS derivatives
  (:func:`repro.ccs.semantics.derivatives`) -- no ``compile_to_fsp``, no
  up-front state bound.

:func:`materialize` walks the reachable part of an implicit system (bounded
by ``limit``) and emits an ordinary :class:`~repro.core.fsp.FSP`, so every
existing solver, notion and serialisation format applies to explored
systems; :func:`materialize_lts` continues into the integer CSR kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass

from repro.ccs.semantics import derivatives
from repro.ccs.syntax import TAU_ACTION, Definitions, Process as CCSTerm
from repro.core.errors import InvalidProcessError, StateSpaceLimitError
from repro.core.fsp import ACCEPT, FSP, TAU
from repro.core.lts import LTS

State = Hashable
Move = tuple[str, State]


class ImplicitLTS(ABC):
    """A state space given by an initial state and a successor function.

    States are arbitrary hashable values private to the implementation
    (strings for :class:`FSPAdapter`, terms for :class:`CCSAdapter`, pairs
    for the lazy products).  An implementation provides:

    * :meth:`initial` -- the start state;
    * :meth:`successors` -- the outgoing ``(action, state)`` moves, where the
      action is an observable label or :data:`~repro.core.fsp.TAU`;
    * :meth:`extension` -- the state's extension set (Definition 2.1.1's
      ``E(q)``; acceptance in the standard model);
    * :meth:`state_name` -- a human-readable name used when materialising.

    :attr:`alphabet` is the declared observable alphabet, or None when it is
    only known a posteriori (CCS terms); :attr:`variables` is the variable
    set ``V``.
    """

    @abstractmethod
    def initial(self) -> State:
        """The start state."""

    @abstractmethod
    def successors(self, state: State) -> Iterable[Move]:
        """The outgoing ``(action, successor)`` moves of ``state``."""

    def extension(self, state: State) -> frozenset[str]:
        """``E(q)`` -- the extension set of ``state`` (empty by default)."""
        return frozenset()

    def state_name(self, state: State) -> str:
        """The name ``state`` receives in a materialised FSP."""
        return str(state)

    @property
    def alphabet(self) -> frozenset[str] | None:
        """The observable alphabet, or None when only discoverable by exploration."""
        return None

    @property
    def variables(self) -> frozenset[str]:
        """The variable set ``V`` of the materialised process."""
        return frozenset({ACCEPT})


class FSPAdapter(ImplicitLTS):
    """An eager :class:`~repro.core.fsp.FSP` viewed through the implicit interface."""

    __slots__ = ("fsp",)

    def __init__(self, fsp: FSP) -> None:
        if not isinstance(fsp, FSP):
            raise InvalidProcessError(f"FSPAdapter wraps an FSP, not {type(fsp).__name__}")
        self.fsp = fsp

    def initial(self) -> str:
        return self.fsp.start

    def successors(self, state: str) -> Iterator[Move]:
        return iter(self.fsp.transitions_from(state))

    def extension(self, state: str) -> frozenset[str]:
        return self.fsp.extension(state)

    def state_name(self, state: str) -> str:
        return state

    @property
    def alphabet(self) -> frozenset[str]:
        return self.fsp.alphabet

    @property
    def variables(self) -> frozenset[str]:
        return self.fsp.variables

    def __repr__(self) -> str:
        return f"FSPAdapter({self.fsp!r})"


class CCSAdapter(ImplicitLTS):
    """Direct SOS exploration of a CCS term -- no ``compile_to_fsp``.

    States are the reachable terms themselves; each successor query runs the
    SOS rules (:func:`repro.ccs.semantics.derivatives`) on demand.  Matching
    the convention of :func:`~repro.ccs.semantics.compile_to_fsp`, every
    state is accepting (CCS terms carry no acceptance information), state
    names are the canonical term strings, and the alphabet defaults to the
    actions actually seen during exploration (pass ``alphabet`` to pin it).

    Recursion plus parallel composition can generate *infinitely* many
    distinct terms (``A := a.(A | A)``); ``max_states`` bounds how many the
    adapter will ever expand, so any exploration driven through it -- a
    bounded materialise, the on-the-fly checker, a service worker --
    terminates with :class:`~repro.core.errors.StateSpaceLimitError` instead
    of running away.
    """

    __slots__ = ("term", "definitions", "max_states", "_alphabet", "_expanded")

    def __init__(
        self,
        term: CCSTerm,
        definitions: Definitions | None = None,
        alphabet: Iterable[str] | None = None,
        max_states: int = 10_000,
    ) -> None:
        self.term = term
        self.definitions = definitions if definitions is not None else Definitions()
        self.max_states = max_states
        self._alphabet = frozenset(alphabet) if alphabet is not None else None
        self._expanded: set[CCSTerm] = set()

    def initial(self) -> CCSTerm:
        return self.term

    def successors(self, state: CCSTerm) -> Iterator[Move]:
        if state not in self._expanded:
            if len(self._expanded) >= self.max_states:
                raise StateSpaceLimitError(
                    f"CCS term exploration exceeded {self.max_states} states"
                )
            self._expanded.add(state)
        for action, successor in derivatives(state, self.definitions):
            yield (TAU if action == TAU_ACTION else action), successor

    def extension(self, state: CCSTerm) -> frozenset[str]:
        return frozenset({ACCEPT})

    def state_name(self, state: CCSTerm) -> str:
        return str(state)

    @property
    def alphabet(self) -> frozenset[str] | None:
        return self._alphabet

    def __repr__(self) -> str:
        return f"CCSAdapter({str(self.term)!r})"


def as_implicit(source) -> ImplicitLTS:
    """Coerce a source to an implicit system (FSPs are wrapped, implicits pass through)."""
    if isinstance(source, ImplicitLTS):
        return source
    if isinstance(source, FSP):
        return FSPAdapter(source)
    raise InvalidProcessError(
        f"cannot view a {type(source).__name__} as an implicit LTS; "
        "expected an ImplicitLTS or FSP"
    )


@dataclass(frozen=True)
class ExplorationStats:
    """What a bounded reachability sweep saw.

    ``complete`` is False when the sweep stopped at ``limit`` states, in
    which case ``states`` / ``transitions`` are lower bounds on the true
    reachable counts.
    """

    states: int
    transitions: int
    complete: bool


def reachable_stats(source, limit: int | None = None) -> ExplorationStats:
    """Count reachable states and transitions without building an FSP.

    >>> from repro.core.fsp import from_transitions
    >>> ring = from_transitions([("a", "go", "b"), ("b", "go", "a")], start="a")
    >>> reachable_stats(ring)
    ExplorationStats(states=2, transitions=2, complete=True)
    """
    node = as_implicit(source)
    start = node.initial()
    seen = {start}
    queue: deque[State] = deque([start])
    transitions = 0
    while queue:
        state = queue.popleft()
        for _action, target in node.successors(state):
            transitions += 1
            if target not in seen:
                if limit is not None and len(seen) >= limit:
                    return ExplorationStats(len(seen), transitions, complete=False)
                seen.add(target)
                queue.append(target)
    return ExplorationStats(len(seen), transitions, complete=True)


def materialize(
    source,
    limit: int | None = None,
    *,
    on_limit: str = "raise",
) -> FSP:
    """Explore the reachable part of an implicit system into an eager FSP.

    Parameters
    ----------
    source:
        An :class:`ImplicitLTS` (or FSP, returned via the identity sweep).
    limit:
        Bound on the number of explored states.  Exceeding it raises
        :class:`~repro.core.errors.StateSpaceLimitError` (like
        ``compile_to_fsp``) unless ``on_limit="truncate"``.
    on_limit:
        ``"raise"`` (default) or ``"truncate"``: truncation keeps the
        explored prefix and drops transitions into unexplored states, which
        *under-approximates* the behaviour -- only use it for inspection.

    The materialised process uses :meth:`ImplicitLTS.state_name` for state
    names (distinct states mapping to one name is rejected -- a name
    collision would silently merge behaviours) and the declared alphabet,
    defaulting to the observable actions actually seen.
    """
    if on_limit not in ("raise", "truncate"):
        raise ValueError(f"on_limit must be 'raise' or 'truncate', not {on_limit!r}")
    node = as_implicit(source)
    start = node.initial()
    names: dict[State, str] = {start: node.state_name(start)}
    owners: dict[str, State] = {names[start]: start}
    queue: deque[State] = deque([start])
    arcs: list[tuple[State, str, State]] = []
    truncated = False
    while queue:
        state = queue.popleft()
        for action, target in node.successors(state):
            if target not in names:
                if limit is not None and len(names) >= limit:
                    if on_limit == "raise":
                        raise StateSpaceLimitError(
                            f"implicit exploration exceeded {limit} states"
                        )
                    truncated = True
                    continue
                name = node.state_name(target)
                previous = owners.setdefault(name, target)
                if previous != target:
                    raise InvalidProcessError(
                        f"state-name collision while materialising: {name!r} names "
                        f"two distinct states"
                    )
                names[target] = name
                queue.append(target)
            arcs.append((state, action, target))
    transitions = {
        (names[src], action, names[dst])
        for src, action, dst in arcs
        if not (truncated and dst not in names)
    }
    used = {action for _src, action, _dst in transitions if action != TAU}
    declared = node.alphabet
    alphabet = used if declared is None else set(declared) | used
    return FSP(
        states=set(names.values()),
        start=names[start],
        alphabet=alphabet,
        transitions=transitions,
        variables=node.variables,
        extensions=[
            (name, variable) for state, name in names.items() for variable in node.extension(state)
        ],
    )


def materialize_lts(source, limit: int | None = None) -> LTS:
    """Materialise into the integer CSR kernel (tau kept as one more action)."""
    return LTS.from_fsp(materialize(source, limit=limit), include_tau=True)
