"""On-the-fly equivalence checking over implicit state spaces.

The eager pipeline (materialise, saturate, refine) must build the *whole*
reachable space before it answers; for composed systems that is exactly the
product explosion Section 6 warns about.  This module decides strong and
observational equivalence by exploring the *pair* space of two implicit
systems lazily, in the local / on-the-fly style of Fernandez & Mounier:

1. **Bounded-game deepening** -- the bisimulation game is played to depth
   ``k`` for increasing ``k`` (the ``approx_k`` chain of Definition 2.2.1
   made operational).  A challenger win at any depth is a definite
   inequivalence, found after touching only the pairs within ``k`` steps of
   the roots -- a vanishing fraction of a large product.  A game tree that
   closes without ever hitting the depth cutoff is a definite equivalence.
2. **Depth-first search with assumption sets** -- pairs on (or committed by)
   the search are assumed equivalent; each challenger move must be matched
   by some defender response whose sub-search succeeds, with the assumption
   trail rolled back on failure.  Assumptions only ever help *prove*
   equivalence (the coinductive reading of the greatest fixed point), so a
   returned inequivalence is genuine, and on success the surviving
   assumption set is itself a bisimulation.

For the observational notion the challenger plays strong moves and the
defender answers with weak ones, with extension sets compared pairwise --
the asymmetric formulation of weak bisimulation, equivalent to strong
equivalence of the saturated systems of Theorem 4.1(a).  ``=a=>`` is
``=>^ε ->^a =>^ε``, so the weak ``a``-moves of a whole set of states are the
tau-closure of the strong ``a``-targets of its closure: one closure search,
not one per member.

On inequivalence the checker returns the challenger's action path and
*verifies* it: the path is replayed macro-state by macro-state on both
systems (each weak step one closure search over the whole macro-state), and
when it is a genuine distinguishing trace (one side admits it, or the
reachable extension profiles after it differ) the result is marked
``trace_verified`` -- a certificate checkable without trusting the search.
Branching-only distinctions (``a.(b+c)`` vs ``a.b + a.c``) keep the path as
an unverified explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import TAU
from repro.explore.implicit import ImplicitLTS, State, as_implicit
from repro.explore.reduce import (
    Fingerprinter,
    normalize_frontier,
    normalize_reduction,
    prepare_operand,
)

__all__ = ["ExploreResult", "check_implicit", "verify_trace"]

#: Depth schedule of the bounded-game phase.  Shallow differences -- the
#: common case for buggy compositions -- are found within the first few
#: levels while the search still hugs the roots.
_DEEPENING = (1, 2, 3, 4, 6, 8, 12)


@dataclass(frozen=True)
class ExploreResult:
    """The outcome of one on-the-fly check.

    ``trace`` is the challenger's action path on inequivalence (None when
    equivalent); ``trace_verified`` records whether the replay confirmed it
    as a genuine distinguishing trace, and ``trace_in_left`` which side
    admits it (None when verification failed or was vacuous).
    ``pairs_visited`` counts distinct product pairs touched --
    the quantity the benchmark gate compares against the reachable product
    size.  ``left_states`` / ``right_states`` count component states
    explored, ``route`` names the phase that produced the answer, and
    ``reduction`` records the state-space reduction mode the search ran
    under (see :mod:`repro.explore.reduce`).
    """

    equivalent: bool
    notion: str
    trace: tuple[str, ...] | None
    trace_verified: bool
    trace_in_left: bool | None
    pairs_visited: int
    left_states: int
    right_states: int
    route: str
    reduction: str = "none"

    def __bool__(self) -> bool:
        return self.equivalent

    def describe(self) -> str:
        answer = "equivalent" if self.equivalent else "NOT equivalent"
        line = f"{answer} under {self.notion} equivalence ({self.route}, "
        line += f"{self.pairs_visited} pairs visited)"
        if self.trace is not None:
            rendered = ".".join(self.trace) if self.trace else "ε"
            status = "verified distinguishing trace" if self.trace_verified else "witness path"
            line += f"; {status}: {rendered!r}"
        return line


class _Explorer:
    """Memoised successor / tau-closure / weak-move queries over one system."""

    __slots__ = ("node", "_succ", "_ext", "_closure", "_weak")

    def __init__(self, node: ImplicitLTS) -> None:
        self.node = node
        self._succ: dict[State, tuple[tuple[str, State], ...]] = {}
        self._ext: dict[State, frozenset[str]] = {}
        self._closure: dict[State, frozenset[State]] = {}
        self._weak: dict[tuple[State, str], frozenset[State]] = {}

    def successors(self, state: State) -> tuple[tuple[str, State], ...]:
        moves = self._succ.get(state)
        if moves is None:
            moves = tuple(self.node.successors(state))
            self._succ[state] = moves
        return moves

    def extension(self, state: State) -> frozenset[str]:
        ext = self._ext.get(state)
        if ext is None:
            ext = self.node.extension(state)
            self._ext[state] = ext
        return ext

    def targets(self, states, action: str):
        """The strong ``action``-successors of ``states`` (with repeats)."""
        for state in states:
            for label, target in self.successors(state):
                if label == action:
                    yield target

    def close(self, seeds) -> frozenset[State]:
        """The tau-closure of a set of states: one search over tau-moves.

        A state whose closure is already memoised contributes it whole
        instead of being searched again.
        """
        known = self._closure
        seen: set[State] = set()
        frontier = list(seeds)
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            closed = known.get(state)
            if closed is not None:
                seen |= closed
                continue
            seen.add(state)
            for action, target in self.successors(state):
                if action == TAU and target not in seen:
                    frontier.append(target)
        return frozenset(seen)

    def closure(self, state: State) -> frozenset[State]:
        """The tau-closure of ``state`` (always contains ``state``)."""
        cached = self._closure.get(state)
        if cached is None:
            cached = self.close((state,))
            self._closure[state] = cached
        return cached

    def weak_successors(self, state: State, action: str) -> frozenset[State]:
        """``{q : state =action=> q}`` -- closure, one strong step, closure."""
        key = (state, action)
        cached = self._weak.get(key)
        if cached is None:
            cached = self.close(self.targets(self.closure(state), action))
            self._weak[key] = cached
        return cached

    def responses(self, state: State, action: str, weak: bool) -> tuple[State, ...]:
        """Defender responses to a challenger ``action``-move against ``state``."""
        if not weak:
            return tuple(self.targets((state,), action))
        if action == TAU:
            return tuple(self.closure(state))
        return tuple(self.weak_successors(state, action))

    @property
    def states_explored(self) -> int:
        return len(self._succ)


class _Budget(Exception):
    """Internal signal: the pair-visit budget was exhausted."""


def _identity(pair):
    return pair


class _Search:
    """Shared state of one check: explorers, pair budget, game memos."""

    def __init__(
        self,
        left: _Explorer,
        right: _Explorer,
        weak: bool,
        max_pairs: int | None,
        fingerprint: Fingerprinter | None = None,
    ):
        self.left = left
        self.right = right
        self.weak = weak
        self.max_pairs = max_pairs
        #: pair -> memo key.  With a fingerprinter every pair-keyed structure
        #: stores ~128-bit ints instead of nested state tuples, which is what
        #: keeps 10^8-pair frontiers in bounded memory; the identity keeps
        #: the exact behaviour (``frontier="exact"``).
        self.key = fingerprint if fingerprint is not None else _identity
        self.visited: set = set()
        #: definite distinguishing traces per pair (a found distinction never
        #: expires, whatever depth produced it).
        self.dist: dict = {}
        #: pairs where the defender wins the *unbounded* game outright (the
        #: bounded search closed below the cutoff).
        self.indist_complete: set = set()
        #: deepest bound a pair survived without a definite answer.
        self.indist_depth: dict = {}
        #: within-round memo: the depth each pair was already expanded at in
        #: the current deepening round (reset by :meth:`new_round`).  Without
        #: it a pair reached along many paths would be re-expanded once per
        #: path, which is exponential in the depth bound.
        self.round_depth: dict = {}

    def new_round(self) -> None:
        self.round_depth.clear()

    def touch(self, key) -> None:
        if key not in self.visited:
            if self.max_pairs is not None and len(self.visited) >= self.max_pairs:
                raise _Budget()
            self.visited.add(key)

    def challenger_moves(self, p: State, q: State):
        """Both sides' strong moves: ``(from_left, action, successor)``."""
        for action, target in self.left.successors(p):
            yield True, action, target
        for action, target in self.right.successors(q):
            yield False, action, target

    def ext_mismatch(self, p: State, q: State) -> bool:
        return self.left.extension(p) != self.right.extension(q)

    # ------------------------------------------------------------------
    # phase 1: the depth-bounded game
    # ------------------------------------------------------------------
    def bounded(self, p: State, q: State, k: int) -> tuple[tuple[str, ...] | None, bool]:
        """Play the game to depth ``k``; returns ``(trace, complete)``.

        A non-None trace is a *definite* distinction (a challenger win is a
        challenger win at every larger depth).  ``complete=True`` with a
        None trace means the defender wins the unbounded game from here (no
        branch reached the cutoff), so the pair is definitely equivalent.
        """
        pair = self.key((p, q))
        known = self.dist.get(pair)
        if known is not None:
            return known, True
        if pair in self.indist_complete:
            return None, True
        if self.ext_mismatch(p, q):
            self.dist[pair] = ()
            return (), True
        if k <= self.indist_depth.get(pair, -1):
            return None, False
        if k == 0:
            # Depth exhausted -- unless the pair is mutually terminal, in
            # which case the defender has already won outright.
            if not self.left.successors(p) and not self.right.successors(q):
                self.indist_complete.add(pair)
                return None, True
            return None, False
        if k <= self.round_depth.get(pair, -1):
            # Already expanded this round at this depth or deeper (also cuts
            # cycles back into a pair currently on the expansion path)
            # without producing a distinction: nothing new below here.
            return None, False
        self.round_depth[pair] = k
        self.touch(pair)
        complete = True
        for from_left, action, mover_target in self.challenger_moves(p, q):
            defender = self.right if from_left else self.left
            against = q if from_left else p
            answers = defender.responses(against, action, self.weak)
            if not answers:
                trace = (action,)
                self.dist[pair] = trace
                return trace, True
            all_refuted = True
            move_complete = True
            first_sub: tuple[str, ...] | None = None
            for answer in answers:
                sub_pair = (mover_target, answer) if from_left else (answer, mover_target)
                sub, sub_complete = self.bounded(sub_pair[0], sub_pair[1], k - 1)
                if sub is None:
                    all_refuted = False
                    move_complete = sub_complete
                    break
                if first_sub is None:
                    first_sub = sub
            if all_refuted:
                trace = (action,) + (first_sub or ())
                self.dist[pair] = trace
                return trace, True
            complete = complete and move_complete
        if complete:
            self.indist_complete.add(pair)
            return None, True
        if k > self.indist_depth.get(pair, -1):
            self.indist_depth[pair] = k
        return None, False

    # ------------------------------------------------------------------
    # phase 2: depth-first search with an assumption trail
    # ------------------------------------------------------------------
    def dfs(self, p0: State, q0: State) -> tuple[str, ...] | None:
        """Full decision: None means equivalent, a trace means not.

        Implemented as trampolined generators so pair-space depth is not
        limited by the Python recursion limit.  ``assumed`` holds the
        coinductive hypotheses; the trail rolls them back on failure, so a
        surviving assumption set is closed under matching -- a bisimulation.
        """
        assumed: dict = {}
        trail: list = []

        def rollback(mark: int) -> None:
            while len(trail) > mark:
                assumed.pop(trail.pop(), None)

        def visit(p: State, q: State):
            pair = self.key((p, q))
            known = self.dist.get(pair)
            if known is not None:
                return known
            if pair in assumed or pair in self.indist_complete:
                return None
            if self.ext_mismatch(p, q):
                self.dist[pair] = ()
                return ()
            self.touch(pair)
            mark = len(trail)
            assumed[pair] = True
            trail.append(pair)
            for from_left, action, mover_target in self.challenger_moves(p, q):
                defender = self.right if from_left else self.left
                against = q if from_left else p
                answers = defender.responses(against, action, self.weak)
                matched = False
                fail_trace: tuple[str, ...] | None = None
                for answer in answers:
                    sub_pair = (mover_target, answer) if from_left else (answer, mover_target)
                    sub_mark = len(trail)
                    sub = yield sub_pair
                    if sub is None:
                        matched = True
                        break
                    rollback(sub_mark)
                    if fail_trace is None:
                        fail_trace = (action,) + sub
                if not matched:
                    if fail_trace is None:
                        fail_trace = (action,)
                    rollback(mark)
                    self.dist[pair] = fail_trace
                    return fail_trace
            return None

        # Trampoline: each visit() call is a generator yielding child pairs;
        # child results are sent back in, so pair-space depth never touches
        # the Python recursion limit.
        stack = [visit(p0, q0)]
        result: tuple[str, ...] | None = None
        resume = False
        while stack:
            frame = stack[-1]
            try:
                request = frame.send(result) if resume else next(frame)
            except StopIteration as stop:
                result = stop.value
                resume = True
                stack.pop()
                continue
            stack.append(visit(request[0], request[1]))
            resume = False
        return result


def _replay_step(explorer: _Explorer, macro: frozenset, action: str, weak: bool) -> frozenset:
    if weak:
        # Every weak macrostate is tau-closed (the replay starts at a
        # closure and each step returns one), so its weak ``action``-successors
        # are the closure of its strong ``action``-targets: one search.
        return explorer.close(explorer.targets(macro, action))
    return frozenset(explorer.targets(macro, action))


def _verify_trace(
    left: _Explorer,
    right: _Explorer,
    trace: tuple[str, ...],
    weak: bool,
) -> tuple[bool, bool | None]:
    """Replay the challenger path; returns ``(verified, admitted_by_left)``.

    The path verifies when some prefix is a genuine trace of exactly one
    side, or when the extension profiles reachable after the full path
    differ (both are behavioural differences any bisimulation preserves).
    """
    start_left = left.node.initial()
    start_right = right.node.initial()
    left_macro: frozenset = left.closure(start_left) if weak else frozenset({start_left})
    right_macro: frozenset = right.closure(start_right) if weak else frozenset({start_right})
    steps = tuple(a for a in trace if not (weak and a == TAU))
    for action in steps:
        left_macro = _replay_step(left, left_macro, action, weak)
        right_macro = _replay_step(right, right_macro, action, weak)
        if bool(left_macro) != bool(right_macro):
            return True, bool(left_macro)
    left_profiles = {left.extension(state) for state in left_macro}
    right_profiles = {right.extension(state) for state in right_macro}
    if left_profiles != right_profiles:
        # Some extension set is reachable along the path on one side only;
        # report the side owning an unmatched profile.
        return True, bool(left_profiles - right_profiles)
    return False, None


def verify_trace(
    left,
    right,
    trace,
    notion: str = "observational",
) -> tuple[bool, bool | None]:
    """Re-check a challenger path against two systems from first principles.

    Returns ``(verified, admitted_by_left)`` -- the public face of the
    replay that :func:`check_implicit` runs on its own traces, usable on any
    pair of implicit systems or FSPs (this is what
    :class:`repro.engine.verdict.TraceWitness` calls).
    """
    if notion not in ("strong", "observational"):
        raise ValueError(
            f"trace verification supports 'strong' and 'observational', not {notion!r}"
        )
    return _verify_trace(
        _Explorer(as_implicit(left)),
        _Explorer(as_implicit(right)),
        tuple(trace),
        notion == "observational",
    )


def check_implicit(
    left,
    right,
    notion: str = "observational",
    *,
    max_pairs: int | None = None,
    max_game_depth: int = _DEEPENING[-1],
    reduction: str = "none",
    frontier: str = "exact",
) -> ExploreResult:
    """Decide strong or observational equivalence of two implicit systems.

    Parameters
    ----------
    left, right:
        :class:`~repro.explore.implicit.ImplicitLTS` instances, eager FSPs
        (wrapped automatically), or :class:`~repro.explore.system.SystemSpec`
        trees -- the only operand form that can carry the symmetry
        annotations the reductions use.
    notion:
        ``"strong"`` or ``"observational"``.
    max_pairs:
        Hard bound on distinct pairs explored; exceeding it raises
        :class:`~repro.core.errors.StateSpaceLimitError` (the same contract
        as the other bounded searches in the library).
    max_game_depth:
        Cutoff of the bounded-game phase; differences deeper than this are
        still found, by the DFS phase.
    reduction:
        One of :data:`repro.explore.reduce.REDUCTIONS`.  Only reductions
        that provably preserve the requested notion are applied (see
        :func:`~repro.explore.reduce.prepare_operand`); any distinguishing
        trace found under a reduction is re-verified against the
        *unreduced* systems before it is reported.
    frontier:
        ``"exact"`` keys the visited sets by full state pairs;
        ``"compact"`` by ~128-bit fingerprints, trading an astronomically
        unlikely collision for an order of magnitude less frontier memory
        (the trace replay above doubles as the collision recheck).

    >>> from repro.core.fsp import from_transitions
    >>> spec = from_transitions([("s", "a", "s")], start="s", all_accepting=True)
    >>> impl = from_transitions([("p", "a", "q"), ("q", "a", "p")], start="p",
    ...                         all_accepting=True)
    >>> check_implicit(spec, impl, "strong").equivalent
    True
    """
    if notion not in ("strong", "observational"):
        raise ValueError(
            f"on-the-fly checking supports 'strong' and 'observational', not {notion!r}"
        )
    weak = notion == "observational"
    mode = normalize_reduction(reduction)
    compact = normalize_frontier(frontier) == "compact"
    left_explorer = _Explorer(prepare_operand(left, mode, weak=weak))
    right_explorer = _Explorer(prepare_operand(right, mode, weak=weak))
    search = _Search(
        left_explorer,
        right_explorer,
        weak,
        max_pairs,
        Fingerprinter() if compact else None,
    )
    p0 = left_explorer.node.initial()
    q0 = right_explorer.node.initial()

    def result(equivalent: bool, trace, route: str) -> ExploreResult:
        verified, in_left = (False, None)
        if trace is not None:
            if mode == "none":
                check_left, check_right = left_explorer, right_explorer
            else:
                # The definitive recheck: replay on freshly built, unreduced
                # systems, so neither a reduction bug nor a fingerprint
                # collision can certify a bogus trace.
                check_left = _Explorer(prepare_operand(left, "none"))
                check_right = _Explorer(prepare_operand(right, "none"))
            verified, in_left = _verify_trace(check_left, check_right, trace, weak)
        return ExploreResult(
            equivalent=equivalent,
            notion=notion,
            trace=trace,
            trace_verified=verified,
            trace_in_left=in_left,
            pairs_visited=len(search.visited),
            left_states=left_explorer.states_explored,
            right_states=right_explorer.states_explored,
            route=route,
            reduction=mode,
        )

    try:
        for depth in _DEEPENING:
            if depth > max_game_depth:
                break
            search.new_round()
            trace, complete = search.bounded(p0, q0, depth)
            if trace is not None:
                return result(False, trace, f"bounded-game(k={depth})")
            if complete:
                return result(True, None, f"bounded-game(k={depth})")
        trace = search.dfs(p0, q0)
    except _Budget:
        raise StateSpaceLimitError(
            f"on-the-fly exploration exceeded {max_pairs} pairs"
        ) from None
    if trace is not None:
        return result(False, trace, "dfs")
    return result(True, None, "dfs")
