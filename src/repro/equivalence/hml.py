"""Hennessy-Milner logic and distinguishing formulas.

Hennessy & Milner (1985) -- cited by the paper as the logical companion of the
equivalence theory -- characterise strong bisimilarity on finite-branching
processes: two states are strongly equivalent iff they satisfy the same
Hennessy-Milner logic (HML) formulas.  The library uses this in the other
direction: when two states are *not* equivalent, a distinguishing formula is a
compact, human-readable certificate of the difference, which the examples and
the failure counterexamples surface to users.

Formulas are built from ``tt``, negation, finite conjunction, the (strong)
diamond ``<a>phi``, the weak diamond ``<<a>>phi`` (over ``=>^a``), and an
extension atom ``ext(V)`` asserting that the state's extension set equals
``V`` (needed because the paper's equivalences compare extensions at level 0).

:func:`distinguishing_formula` produces a formula satisfied by the first state
but not the second whenever they are distinguished by the chosen equivalence
(strong or observational).  It reads the formula off the refinement chain
``simeq_0, simeq_1, ...`` (Definition 2.2.2), computed by
:func:`lts_distinguishing_formula` as round-synchronous signature refinement
on the integer CSR kernel: one block-id list per round, each round
recomputing only the predecessors of states that moved, stopping at the
first round that separates the two states.  The formula's modal depth is
that separation level, the least any distinguishing formula can have.  The
engine runs the same code on the CSR union of two quotients; weak formulas
run on saturated kernels, whose arcs are the weak moves.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

from repro.core.derivatives import WeakTransitionView
from repro.core.errors import InvalidProcessError
from repro.core.fsp import EPSILON, FSP, TAU
from repro.core.lts import LTS
from repro.core.weak import saturate_lts
from repro.partition.branching import split_blocks


# ----------------------------------------------------------------------
# formula syntax
# ----------------------------------------------------------------------
class _Node:
    """Shared rendering for the formula classes.

    Witness formulas nest one modality per separation level, so a deep
    inequivalence yields a formula hundreds of levels deep.  ``str`` and
    ``repr`` therefore walk the formula with an explicit stack (see
    :func:`_render`) instead of recursing through nested ``__str__`` calls.
    """

    def __str__(self) -> str:
        return _render(self, text=True)

    def __repr__(self) -> str:
        return _render(self, text=False)


@dataclass(frozen=True, repr=False)
class Tt(_Node):
    """The formula ``tt`` satisfied by every state."""


@dataclass(frozen=True, repr=False)
class ExtensionIs(_Node):
    """Atom asserting the state's extension set equals ``extension``."""

    extension: frozenset[str]


@dataclass(frozen=True, repr=False)
class Not(_Node):
    """Negation."""

    operand: "Formula"


@dataclass(frozen=True, repr=False)
class And(_Node):
    """Finite conjunction."""

    operands: tuple["Formula", ...]


@dataclass(frozen=True, repr=False)
class Diamond(_Node):
    """The strong diamond ``<action> operand``: some ``action``-successor satisfies it."""

    action: str
    operand: "Formula"


@dataclass(frozen=True, repr=False)
class WeakDiamond(_Node):
    """The weak diamond ``<<action>> operand`` over the weak transition ``=>^action``.

    ``action`` may be the empty string, in which case the modality quantifies
    over ``=>^epsilon`` (tau-reachability).
    """

    action: str
    operand: "Formula"


Formula = Union[Tt, ExtensionIs, Not, And, Diamond, WeakDiamond]


def _pieces(formula: Formula, text: bool) -> list:
    """One formula node as literal strings around its direct subformulas."""
    if isinstance(formula, Tt):
        return ["tt" if text else "Tt()"]
    if isinstance(formula, ExtensionIs):
        if text:
            return ["ext({" + ", ".join(sorted(formula.extension)) + "})"]
        return [f"ExtensionIs(extension={formula.extension!r})"]
    if isinstance(formula, Not):
        return ["¬(" if text else "Not(operand=", formula.operand, ")"]
    if isinstance(formula, And):
        operands = formula.operands
        if text and not operands:
            return ["tt"]
        pieces: list = ["(" if text else "And(operands=("]
        for index, operand in enumerate(operands):
            if index:
                pieces.append(" ∧ " if text else ", ")
            pieces.append(operand)
        if text:
            pieces.append(")")
        else:
            pieces.append(",))" if len(operands) == 1 else "))")
        return pieces
    if isinstance(formula, Diamond):
        head = f"<{formula.action}>(" if text else f"Diamond(action={formula.action!r}, operand="
        return [head, formula.operand, ")"]
    if isinstance(formula, WeakDiamond):
        if text:
            head = f"<<{formula.action or 'ε'}>>("
        else:
            head = f"WeakDiamond(action={formula.action!r}, operand="
        return [head, formula.operand, ")"]
    raise TypeError(f"not an HML formula: {formula!r}")


def _render(formula: Formula, text: bool) -> str:
    """``str`` (``text=True``) or ``repr`` of a formula, without recursion."""
    out: list[str] = []
    stack: list = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(item, text)))
    return "".join(out)


def _subformulas(formula: Formula) -> tuple[Formula, ...]:
    if isinstance(formula, And):
        return formula.operands
    if isinstance(formula, (Not, Diamond, WeakDiamond)):
        return (formula.operand,)
    return ()


def modal_depth(formula: Formula) -> int:
    """The nesting depth of modalities, matching the ``k`` of ``approx_k``/``simeq_k``."""
    deepest = 0
    stack = [(formula, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (Diamond, WeakDiamond)):
            depth += 1
        deepest = max(deepest, depth)
        stack.extend((sub, depth) for sub in _subformulas(node))
    return deepest


# ----------------------------------------------------------------------
# satisfaction
# ----------------------------------------------------------------------
def satisfies(
    fsp: FSP, state: str, formula: Formula, view: WeakTransitionView | None = None
) -> bool:
    """Whether ``state`` satisfies ``formula`` in ``fsp``.

    Evaluated top-down from ``state`` with an explicit stack, so formula
    depth is not bounded by the interpreter's recursion limit; each
    ``(subformula, state)`` pair is decided at most once.
    """
    memo: dict[tuple[int, str], bool] = {}

    def atom(node: Formula, at: str) -> bool | None:
        """The value of a leaf or already-decided pair, else None."""
        if isinstance(node, Tt):
            return True
        if isinstance(node, ExtensionIs):
            return fsp.extension(at) == node.extension
        return memo.get((id(node), at))

    def children(node: Formula, at: str):
        nonlocal view
        if isinstance(node, (Not, And)):
            return ((sub, at) for sub in _subformulas(node))
        if isinstance(node, Diamond):
            return ((node.operand, t) for t in fsp.successors(at, node.action))
        if isinstance(node, WeakDiamond):
            view = view if view is not None else WeakTransitionView(fsp)
            if node.action:
                targets = view.weak_successors(at, node.action)
            else:
                targets = view.epsilon_closure(at)
            return ((node.operand, t) for t in targets)
        raise TypeError(f"not an HML formula: {node!r}")

    value = atom(formula, state)
    if value is not None:
        return value
    # Frames are (node, state, pending children); a conjunction stops at the
    # first false child, a diamond at the first true one.
    stack = [(formula, state, children(formula, state))]
    value = None
    while stack:
        node, at, pending = stack[-1]
        if value is not None:
            if isinstance(node, Not):
                result: bool | None = not value
            elif isinstance(node, And):
                result = None if value else False
            else:
                result = True if value else None
            value = None
            if result is not None:
                stack.pop()
                memo[(id(node), at)] = value = result
                continue
        child = next(pending, None)
        if child is None:
            # Every child was consumed without a decisive value.
            stack.pop()
            memo[(id(node), at)] = value = isinstance(node, And)
            continue
        value = atom(*child)
        if value is None:
            stack.append((child[0], child[1], children(*child)))
    return value


# ----------------------------------------------------------------------
# distinguishing formulas
# ----------------------------------------------------------------------
def distinguishing_formula(fsp: FSP, first: str, second: str, weak: bool = False) -> Formula | None:
    """A formula satisfied by ``first`` but not by ``second``, or None.

    ``weak=False`` distinguishes with respect to strong equivalence (tau
    treated as a label), ``weak=True`` with respect to observational
    equivalence (weak diamonds).  Returns None when the states are equivalent
    in the chosen sense, in which case no HML formula can separate them.

    The process is interned (and, for ``weak=True``, saturated) and handed
    to :func:`lts_distinguishing_formula`.
    """
    lts = LTS.from_fsp(fsp, include_tau=True)
    if weak:
        lts = saturate_lts(lts)
    index = {name: i for i, name in enumerate(lts.state_names)}
    for state in (first, second):
        if state not in index:
            raise InvalidProcessError(f"{state!r} is not a state of this process")
    return lts_distinguishing_formula(lts, index[first], index[second], weak)


def lts_distinguishing_formula(
    lts: LTS, first: int, second: int, weak: bool = False
) -> Formula | None:
    """A formula satisfied by state ``first`` of ``lts`` but not ``second``, or None.

    The modalities range over the arcs of ``lts``: single transitions, tau
    as a label, for strong diamonds (``weak=False``); for weak diamonds
    (``weak=True``) ``lts`` must be saturated
    (:func:`repro.core.weak.saturate_lts`), so that its arcs are the weak
    moves ``=>^a`` and its epsilon-arcs the moves ``=>^epsilon`` (rendered
    ``<<ε>>``).  The formula's modal depth is the separation level of the
    two states, the least one possible.
    """
    levels = _separating_rounds(lts, first, second)
    if levels is None:
        return None
    return _formula_from_rounds(lts, first, second, levels, weak)


def _separating_rounds(lts: LTS, first: int, second: int) -> list[list[int]] | None:
    """The block ids of ``simeq_0, simeq_1, ...`` up to the first that separates.

    Round ``r`` splits every block of round ``r - 1`` by the signature
    ``{(a, block(t)) | s -a-> t}``, so two states share a block id after
    round ``r`` iff they are ``simeq_r`` (Definition 2.2.2 when the arcs are
    weak moves).  A round recomputes only the signatures of predecessors of
    states that moved in the previous one (the worklist of
    :mod:`repro.partition.branching`).  Returns one block-id list per round,
    ending with the first round in which ``first`` and ``second`` differ, or
    None when the refinement stabilises with them together.
    """
    block, num = lts.extension_block_ids()
    levels = [block]
    if block[first] != block[second]:
        return levels
    block = list(block)
    members: list[set[int]] = [set() for _ in range(num)]
    for state, b in enumerate(block):
        members[b].add(state)
    ref: list[frozenset[int] | None] = [None] * num
    width = lts.num_actions
    offsets = lts.fwd_offsets
    arc_actions = lts.fwd_actions.tolist()
    arc_targets = lts.fwd_targets.tolist()
    rev_offsets, _, rev_sources = lts.reverse_index()
    dirty: Iterable[int] = range(lts.n)
    while True:
        changed: dict[int, dict[frozenset[int], list[int]]] = {}
        for s in dirty:
            sig = frozenset(
                block[arc_targets[i]] * width + arc_actions[i]
                for i in range(offsets[s], offsets[s + 1])
            )
            if sig != ref[block[s]]:
                changed.setdefault(block[s], {}).setdefault(sig, []).append(s)
        moved = split_blocks(changed, block, members, ref)
        if not moved:
            return None
        levels.append(list(block))
        if block[first] != block[second]:
            return levels
        dirty = {rev_sources[i] for t in moved for i in range(rev_offsets[t], rev_offsets[t + 1])}


def _formula_from_rounds(
    lts: LTS, first: int, second: int, levels: list[list[int]], weak: bool
) -> Formula:
    """Build a formula of modal depth ``len(levels) - 1`` separating the two states.

    At level ``k`` a move of one state that the other cannot match up to
    ``simeq_{k-1}`` becomes a diamond (negated when the move is the second
    state's) over one separating formula per matching candidate.  Actions
    are tried in the order observable names sorted, then tau or epsilon.
    The formula nests one modality per level, so it is built with an
    explicit stack of pending diamonds rather than by recursion.
    """
    names = lts.action_names
    silent = [a for a, name in enumerate(names) if name in (TAU, EPSILON)]
    order = sorted((a for a in range(len(names)) if a not in silent), key=names.__getitem__)
    order += silent
    labels = ["" if names[a] == EPSILON else names[a] for a in range(len(names))]
    ext_sets = lts.ext_sets
    offsets, arc_actions, arc_targets = lts.fwd_offsets, lts.fwd_actions, lts.fwd_targets

    def moves(state: int, action: int) -> list[int]:
        return [
            arc_targets[i]
            for i in range(offsets[state], offsets[state + 1])
            if arc_actions[i] == action
        ]

    def level_of(x: int, y: int, below: int) -> int:
        """The first round separating ``x`` and ``y``, known to be ``<= below``."""
        low, high = 0, below
        while low < high:
            middle = (low + high) // 2
            blocks = levels[middle]
            if blocks[x] != blocks[y]:
                high = middle
            else:
                low = middle + 1
        return low

    def separate(x: int, y: int, level: int) -> Formula | list:
        """The leaf formula at level 0, else a frame for the diamond to build.

        A frame is ``[negated, action, pending pairs, built conjuncts]``: a
        move of ``x`` that ``y`` cannot match up to the previous level, or
        failing that a move of ``y`` (and the diamond is negated); each
        pending pair still needs its own separating formula.
        """
        if level == 0:
            return ExtensionIs(ext_sets[x] if ext_sets is not None else frozenset())
        previous = levels[level - 1]
        for swap in (False, True):
            mover, other = (y, x) if swap else (x, y)
            for action in order:
                targets = moves(mover, action)
                if not targets:
                    continue
                answers = moves(other, action)
                matched = {previous[t] for t in answers}
                for target in targets:
                    if previous[target] not in matched:
                        pending = [(target, t, level_of(target, t, level - 1)) for t in answers]
                        return [swap, labels[action], pending, []]
        raise AssertionError("states are not distinguishable at the requested level")

    top = separate(first, second, len(levels) - 1)
    if not isinstance(top, list):
        return top
    stack = [top]
    while True:
        swap, action, pending, built = stack[-1]
        if len(built) < len(pending):
            step = separate(*pending[len(built)])
            if isinstance(step, list):
                stack.append(step)
            else:
                built.append(step)
            continue
        operand: Formula = And(tuple(built)) if built else Tt()
        formula: Formula = WeakDiamond(action, operand) if weak else Diamond(action, operand)
        if swap:
            formula = Not(formula)
        stack.pop()
        if not stack:
            return formula
        stack[-1][3].append(formula)
