"""A compact integer-indexed labelled transition system kernel.

The hash-based :class:`~repro.core.fsp.FSP` value object is the right
interface for building and validating processes, but it is the wrong data
structure for the partition-refinement algorithms of Section 3: every
splitter scan walks dicts of frozensets of strings, so constant factors
swamp the ``O(c^2 n log n)`` / ``O(m log n)`` asymptotics the paper is
about.  This module provides the engineered representation that the
solvers in :mod:`repro.partition` actually run on:

* states and actions are interned to dense integers ``0..n-1`` / ``0..k-1``;
* the transition relation is stored once, sorted by ``(source, action)``,
  in CSR-style contiguous arrays (:mod:`array` -- no numpy dependency):
  ``fwd_offsets[s] .. fwd_offsets[s+1]`` indexes the arcs leaving state
  ``s`` in the parallel ``fwd_actions`` / ``fwd_targets`` arrays;
* a reverse index with the same layout (grouped by *target*) is built once
  on demand and cached -- this is the structure every splitter scan of the
  Kanellakis-Smolka and Paige-Tarjan algorithms walks.

``LTS.from_fsp`` / ``LTS.to_fsp`` bridge between the two worlds; the
round-trip is exact whenever tau-transitions are kept (``include_tau=True``,
the default).

Example
-------

>>> from repro.core.fsp import from_transitions
>>> process = from_transitions(
...     [("p", "a", "q"), ("q", "b", "p")],
...     start="p", accepting=["q"], alphabet={"a", "b"},
... )
>>> from repro.core.lts import LTS
>>> kernel = LTS.from_fsp(process)
>>> kernel.n, kernel.num_transitions
(2, 2)
>>> kernel.state_names[kernel.start]
'p'
>>> sorted(
...     (kernel.state_names[s], kernel.action_names[a], kernel.state_names[t])
...     for s, a, t in kernel.arcs()
... )
[('p', 'a', 'q'), ('q', 'b', 'p')]
>>> kernel.to_fsp() == process
True
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.core.errors import InvalidProcessError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.fsp import FSP

#: Array typecode for state/action indices: platform ``long`` (64-bit on the
#: supported platforms), wide enough for any in-memory transition system.
INDEX_TYPECODE = "l"

_ITEMSIZE = array(INDEX_TYPECODE).itemsize


def _zeros(count: int) -> array:
    """A zero-filled index array of the given length."""
    return array(INDEX_TYPECODE, bytes(_ITEMSIZE * count))


def _csr(n: int, edges: Sequence[tuple[int, int, int]]) -> tuple[array, array, array]:
    """``(fwd_offsets, fwd_actions, fwd_targets)`` of distinct, sorted edges.

    Every source must lie in ``0..n-1``.
    """
    sources, actions, targets = zip(*edges) if edges else ((), (), ())
    counts = [0] * (n + 1)
    for src in sources:
        counts[src + 1] += 1
    return (
        array(INDEX_TYPECODE, list(accumulate(counts))),
        array(INDEX_TYPECODE, actions),
        array(INDEX_TYPECODE, targets),
    )


class LTS:
    """An immutable integer-indexed labelled transition system.

    Parameters
    ----------
    state_names:
        External names for the states; state ``i`` is ``state_names[i]``.
    action_names:
        External names for the actions (one per transition label / relation).
    edges:
        ``(source, action, target)`` integer triples.  Duplicates are
        removed; indices must be in range.
    start:
        Index of the distinguished start state (ignored when ``n == 0``).
    ext_sets:
        Optional per-state extension sets (the ``E(q)`` of Definition 2.1.1),
        used by :meth:`extension_block_ids` and :meth:`to_fsp`.
    variables:
        The variable set ``V`` carried through :meth:`to_fsp`.
    observable_alphabet:
        The observable alphabet ``Sigma`` for :meth:`to_fsp` (actions may be a
        superset of the labels actually used on arcs, and may include tau).
    """

    __slots__ = (
        "n",
        "num_actions",
        "state_names",
        "action_names",
        "start",
        "fwd_offsets",
        "fwd_actions",
        "fwd_targets",
        "ext_sets",
        "variables",
        "observable_alphabet",
        "_rev",
        "_rev_lists",
        "_deterministic",
        "_max_fanout",
    )

    def __init__(
        self,
        state_names: Sequence[str],
        action_names: Sequence[str],
        edges: Iterable[tuple[int, int, int]],
        start: int = 0,
        ext_sets: Sequence[frozenset[str]] | None = None,
        variables: tuple[str, ...] = (),
        observable_alphabet: tuple[str, ...] | None = None,
    ) -> None:
        self.state_names: tuple[str, ...] = tuple(state_names)
        self.action_names: tuple[str, ...] = tuple(action_names)
        n = len(self.state_names)
        k = len(self.action_names)
        self.n = n
        self.num_actions = k
        if n and not 0 <= start < n:
            raise InvalidProcessError(f"start index {start} out of range for {n} states")
        self.start = start if n else 0

        unique = sorted(set(edges))
        if unique and not (0 <= unique[0][0] and unique[-1][0] < n):
            raise InvalidProcessError("edge with an out-of-range source state")
        self.fwd_offsets, self.fwd_actions, self.fwd_targets = _csr(n, unique)
        if unique:
            if not (0 <= min(self.fwd_targets) and max(self.fwd_targets) < n):
                raise InvalidProcessError("edge with an out-of-range target state")
            if not (0 <= min(self.fwd_actions) and max(self.fwd_actions) < k):
                raise InvalidProcessError("edge with an out-of-range action")

        self.ext_sets: tuple[frozenset[str], ...] | None = (
            tuple(map(frozenset, ext_sets)) if ext_sets is not None else None
        )
        if self.ext_sets is not None and len(self.ext_sets) != n:
            raise InvalidProcessError("ext_sets must give one extension set per state")
        self.variables = tuple(variables)
        self.observable_alphabet = observable_alphabet
        self._rev: tuple[array, array, array] | None = None
        self._rev_lists: list[Sequence[int]] | None = None
        self._deterministic: bool | None = None
        self._max_fanout: int | None = None

    # ------------------------------------------------------------------
    # bridges
    # ------------------------------------------------------------------
    @classmethod
    def from_fsp(cls, fsp: "FSP", include_tau: bool = True) -> "LTS":
        """Intern a :class:`~repro.core.fsp.FSP` into the integer kernel.

        States are interned in sorted order (so the numbering is canonical),
        actions likewise; when ``include_tau`` is true and the process has
        tau-moves, tau is interned as one more action.  With
        ``include_tau=False`` the tau-arcs are dropped -- that is the Lemma
        3.1 reduction for observable processes.  An FSP decoded by
        :func:`repro.utils.serialization.from_dict` already carries this
        kernel with tau kept, and gets it back without a second intern;
        every other FSP goes through the one interning routine the decoder
        uses.
        """
        kernel = fsp._kernel
        if include_tau and kernel is not None:
            return kernel
        return _intern(
            fsp.states,
            fsp.start,
            fsp.alphabet,
            fsp.transitions,
            fsp.variables,
            fsp.extensions,
            include_tau,
        )

    @classmethod
    def from_csr(
        cls,
        state_names: Sequence[str],
        action_names: Sequence[str],
        fwd_offsets: array,
        fwd_actions: array,
        fwd_targets: array,
        start: int = 0,
        ext_sets: Sequence[frozenset[str]] | None = None,
        variables: tuple[str, ...] = (),
        observable_alphabet: tuple[str, ...] | None = None,
    ) -> "LTS":
        """Adopt pre-built CSR arrays without the sort/dedup of ``__init__``.

        The caller guarantees the CSR invariants: ``fwd_offsets`` has length
        ``n + 1`` with ``fwd_offsets[0] == 0`` and ``fwd_offsets[n] == m``,
        and within every state's slice the arcs are sorted by ``(action,
        target)`` with no duplicates -- the exact layout ``__init__`` produces.
        This is the emission path of :meth:`from_fsp` and of the
        weak-transition engine (:mod:`repro.core.weak`), whose saturated arc
        sets are generated in sorted order and would only be re-sorted (at
        ``O(m log m)``) by the edge-triple constructor.
        """
        lts = cls.__new__(cls)
        lts.state_names = tuple(state_names)
        lts.action_names = tuple(action_names)
        n = len(lts.state_names)
        lts.n = n
        lts.num_actions = len(lts.action_names)
        if (
            len(fwd_offsets) != n + 1
            or fwd_offsets[n] != len(fwd_targets)
            or len(fwd_actions) != len(fwd_targets)
        ):
            raise InvalidProcessError("CSR offsets do not match the arc arrays")
        if n and not 0 <= start < n:
            raise InvalidProcessError(f"start index {start} out of range for {n} states")
        lts.start = start if n else 0
        lts.fwd_offsets = fwd_offsets
        lts.fwd_actions = fwd_actions
        lts.fwd_targets = fwd_targets
        lts.ext_sets = tuple(map(frozenset, ext_sets)) if ext_sets is not None else None
        if lts.ext_sets is not None and len(lts.ext_sets) != n:
            raise InvalidProcessError("ext_sets must give one extension set per state")
        lts.variables = tuple(variables)
        lts.observable_alphabet = observable_alphabet
        lts._rev = None
        lts._rev_lists = None
        lts._deterministic = None
        lts._max_fanout = None
        return lts

    def to_fsp(self) -> "FSP":
        """Reconstruct the :class:`~repro.core.fsp.FSP` this kernel encodes."""
        from repro.core.fsp import FSP, TAU

        if self.n == 0:
            raise InvalidProcessError("cannot build an FSP from an empty LTS")
        names = self.state_names
        actions = self.action_names
        offsets, arc_actions, arc_targets = self.fwd_offsets, self.fwd_actions, self.fwd_targets
        transitions = [
            (names[src], actions[arc_actions[i]], names[arc_targets[i]])
            for src in range(self.n)
            for i in range(offsets[src], offsets[src + 1])
        ]
        ext_sets = self.ext_sets if self.ext_sets is not None else (frozenset(),) * self.n
        extensions = [(names[s], var) for s in range(self.n) for var in ext_sets[s]]
        alphabet = (
            self.observable_alphabet
            if self.observable_alphabet is not None
            else tuple(name for name in actions if name != TAU)
        )
        return FSP(
            states=names,
            start=names[self.start],
            alphabet=alphabet,
            transitions=transitions,
            variables=self.variables or {var for _, var in extensions},
            extensions=extensions,
        )

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def num_transitions(self) -> int:
        """``m`` -- the number of arcs."""
        return len(self.fwd_targets)

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """All arcs as ``(source, action, target)`` integer triples."""
        offsets = self.fwd_offsets
        for src in range(self.n):
            for i in range(offsets[src], offsets[src + 1]):
                yield src, self.fwd_actions[i], self.fwd_targets[i]

    def reverse_index(self) -> tuple[array, array, array]:
        """The cached reverse adjacency ``(rev_offsets, rev_actions, rev_sources)``.

        Arcs grouped by *target*: ``rev_offsets[t] .. rev_offsets[t+1]``
        indexes the arcs entering state ``t``.  This is the index every
        splitter scan walks, so it is built exactly once per LTS.
        """
        if self._rev is None:
            n, m = self.n, len(self.fwd_targets)
            rev_offsets = _zeros(n + 1)
            rev_actions = _zeros(m)
            rev_sources = _zeros(m)
            fwd_targets = self.fwd_targets
            fwd_actions = self.fwd_actions
            for dst in fwd_targets:
                rev_offsets[dst + 1] += 1
            for t in range(n):
                rev_offsets[t + 1] += rev_offsets[t]
            cursor = list(rev_offsets[:n])
            offsets = self.fwd_offsets
            for src in range(n):
                for i in range(offsets[src], offsets[src + 1]):
                    dst = fwd_targets[i]
                    slot = cursor[dst]
                    rev_actions[slot] = fwd_actions[i]
                    rev_sources[slot] = src
                    cursor[dst] = slot + 1
            self._rev = (rev_offsets, rev_actions, rev_sources)
        return self._rev

    def reverse_lists(self) -> list[Sequence[int]]:
        """The reverse index as a flat list of per-``(action, target)`` source lists.

        Slot ``action * n + target`` holds the sources of ``action``-arcs into
        ``target`` (a shared empty tuple when there are none).  This view
        trades ``O(k n)`` slots for branch-free inner loops: a splitter scan
        is one list lookup plus a direct iteration per member, with no offset
        arithmetic per arc.  Built once from the CSR arrays and cached.
        """
        if self._rev_lists is None:
            n = self.n
            empty: tuple[int, ...] = ()
            slots: list[Sequence[int]] = [empty] * (n * self.num_actions)
            offsets = self.fwd_offsets
            fwd_actions = self.fwd_actions.tolist()
            fwd_targets = self.fwd_targets.tolist()
            for src in range(n):
                for i in range(offsets[src], offsets[src + 1]):
                    key = fwd_actions[i] * n + fwd_targets[i]
                    slot = slots[key]
                    if slot is empty:
                        slots[key] = [src]
                    else:
                        slot.append(src)
            self._rev_lists = slots
        return self._rev_lists

    def is_deterministic(self) -> bool:
        """Whether every ``(state, action)`` pair has at most one successor.

        On deterministic systems the solvers may use Hopcroft's smaller-half
        worklist rule, which is unsound for relations in general.  The scan
        exploits the CSR sort order -- two arcs with the same ``(state,
        action)`` are adjacent -- and exits at the first duplicate.
        """
        if self._deterministic is None:
            offsets, arc_actions = self.fwd_offsets, self.fwd_actions
            self._deterministic = True
            for s in range(self.n):
                lo, hi = offsets[s], offsets[s + 1]
                for i in range(lo + 1, hi):
                    if arc_actions[i] == arc_actions[i - 1]:
                        self._deterministic = False
                        return False
        return self._deterministic

    def max_fanout(self) -> int:
        """The ``c`` of Section 3: the largest ``|Delta(q, a)|`` over all pairs."""
        if self._max_fanout is None:
            best = 0
            offsets, arc_actions = self.fwd_offsets, self.fwd_actions
            for s in range(self.n):
                lo, hi = offsets[s], offsets[s + 1]
                run = 0
                last = -1
                for i in range(lo, hi):
                    act = arc_actions[i]
                    run = run + 1 if act == last else 1
                    last = act
                    if run > best:
                        best = run
            self._max_fanout = best
        return self._max_fanout

    def extension_block_ids(self) -> tuple[list[int], int]:
        """Group states by extension set: ``(block_of, num_blocks)``.

        This is the initial partition of the Lemma 3.1 reduction.  States
        without extension information all land in one block.
        """
        if self.ext_sets is None:
            return [0] * self.n, 1 if self.n else 0
        index: dict[frozenset[str], int] = {}
        block_of = [0] * self.n
        for i, ext in enumerate(self.ext_sets):
            block_of[i] = index.setdefault(ext, len(index))
        return block_of, len(index)

    def __repr__(self) -> str:
        return (f"LTS(n={self.n}, m={self.num_transitions}, " f"actions={list(self.action_names)})")


def _intern(
    states: Iterable[str],
    start: str,
    alphabet: Iterable[str],
    transitions: Iterable[tuple[str, str, str]],
    variables: Iterable[str],
    extensions: Iterable[tuple[str, str]],
    include_tau: bool = True,
) -> LTS:
    """The CSR kernel of the sextuple ``(K, p0, Sigma, Delta, V, E)``.

    States and observable actions are numbered in sorted order and tau, when
    an arc keeps it, is one more action after them.  The transitions and
    extensions must be distinct; the interned triples are sorted once and
    laid out as CSR arrays without the edge constructor's deduplication.
    A name outside its table -- a state outside ``states``, an action
    outside ``alphabet`` and tau, a variable outside ``variables`` --
    raises :class:`KeyError`, which is how the decoder finds that a
    document needs the validating constructor.
    """
    from repro.core.fsp import TAU

    state_names = sorted(states)
    action_names = sorted(alphabet)
    tau = len(action_names)
    state_index = {name: i for i, name in enumerate(state_names)}
    action_index = {name: i for i, name in enumerate(action_names)}
    action_index[TAU] = tau
    if not include_tau:
        transitions = [arc for arc in transitions if arc[1] != TAU]
    edges = [
        (state_index[src], action_index[act], state_index[dst]) for src, act, dst in transitions
    ]
    edges.sort()
    offsets, actions, targets = _csr(len(state_names), edges)
    if tau in actions:
        action_names.append(TAU)
    # A state's set is shared while it holds one variable, as it does in
    # the standard model.
    single = {var: frozenset((var,)) for var in variables}
    empty: frozenset[str] = frozenset()
    ext_sets = [empty] * len(state_names)
    for state, var in extensions:
        i = state_index[state]
        ext_sets[i] = ext_sets[i] | single[var] if ext_sets[i] else single[var]
    return LTS.from_csr(
        state_names,
        action_names,
        offsets,
        actions,
        targets,
        start=state_index[start],
        ext_sets=ext_sets,
        variables=tuple(sorted(single)),
        observable_alphabet=tuple(action_names[:tau]),
    )


def _action_key(name: str) -> tuple[bool, str]:
    """Action-table order: names sorted, tau last (the order of ``from_fsp``)."""
    from repro.core.fsp import TAU

    return name == TAU, name


def disjoint_union(left: LTS, right: LTS) -> LTS:
    """The disjoint union of two kernels, started at ``left``'s start state.

    State ``s`` of ``left`` keeps its index and is renamed ``"L:" + name``;
    state ``s`` of ``right`` becomes ``left.n + s`` and ``"R:" + name``, the
    naming of :meth:`repro.core.fsp.FSP.disjoint_union`.  The arc arrays are
    concatenated, ``right``'s targets shifted by ``left.n`` and both action
    columns renumbered through the merged action table.  Each input table
    must be in the order :meth:`LTS.from_fsp` interns (names sorted, tau
    last); the renumbering is then monotone, so every state's arcs stay
    sorted and nothing is re-sorted.
    """
    for side in (left, right):
        if list(side.action_names) != sorted(side.action_names, key=_action_key):
            raise InvalidProcessError(
                f"action table {side.action_names!r} is not sorted with tau last"
            )
    names = tuple("L:" + name for name in left.state_names) + tuple(
        "R:" + name for name in right.state_names
    )
    if left.ext_sets is None and right.ext_sets is None:
        ext_sets = None
    else:
        ext_sets = (left.ext_sets or (frozenset(),) * left.n) + (
            right.ext_sets or (frozenset(),) * right.n
        )
    if left.observable_alphabet is None and right.observable_alphabet is None:
        observable = None
    else:
        observable = tuple(
            sorted(set(left.observable_alphabet or ()) | set(right.observable_alphabet or ()))
        )
    actions = tuple(sorted(set(left.action_names) | set(right.action_names), key=_action_key))
    index = {name: i for i, name in enumerate(actions)}
    left_map = [index[name] for name in left.action_names]
    right_map = [index[name] for name in right.action_names]
    shift, arcs = left.n, left.num_transitions
    return LTS.from_csr(
        names,
        actions,
        left.fwd_offsets + array(INDEX_TYPECODE, [o + arcs for o in right.fwd_offsets[1:]]),
        array(INDEX_TYPECODE, [left_map[a] for a in left.fwd_actions])
        + array(INDEX_TYPECODE, [right_map[a] for a in right.fwd_actions]),
        left.fwd_targets + array(INDEX_TYPECODE, [t + shift for t in right.fwd_targets]),
        start=left.start,
        ext_sets=ext_sets,
        variables=tuple(sorted(set(left.variables) | set(right.variables))),
        observable_alphabet=observable,
    )
