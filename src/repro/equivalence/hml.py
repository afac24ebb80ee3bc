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
(strong or observational); it works level by level along the refinement chain,
which guarantees termination and yields formulas of modal depth equal to the
separation level.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Union

from repro.core.derivatives import WeakTransitionView
from repro.core.fsp import FSP, TAU
from repro.partition.partition import Partition


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
    """
    moves = _moves(fsp, weak)
    levels = _refinement_levels(fsp, moves)
    separation = None
    for index, partition in enumerate(levels):
        if not partition.same_block(first, second):
            separation = index
            break
    if separation is None:
        return None
    formula = _distinguish_at_level(fsp, first, second, separation, levels, weak, moves)
    return formula


#: The actions of one step relation and its successor function.
_Moves = tuple[list[str], Callable[[str, str], frozenset[str]]]


def _moves(fsp: FSP, weak: bool) -> _Moves:
    """The actions and the successor function of single strong or weak moves.

    Strong moves treat tau as a label; weak moves are ``=>^a`` for each
    observable ``a`` plus ``=>^epsilon`` under the empty action name.
    """
    if not weak:
        return sorted(fsp.alphabet) + ([TAU] if fsp.has_tau() else []), fsp.successors
    view = WeakTransitionView(fsp)

    def successors(state: str, action: str) -> frozenset[str]:
        if action == "":
            return view.epsilon_closure(state)
        return view.weak_successors(state, action)

    return sorted(fsp.alphabet) + [""], successors


def _refinement_levels(fsp: FSP, moves: _Moves) -> list[Partition]:
    """The chain of partitions ``simeq_0, simeq_1, ...`` until it stabilises.

    For the strong case the refinement uses single strong transitions (tau as
    a label); for the weak case it uses single weak moves, i.e. the ``simeq_k``
    chain of Definition 2.2.2.
    """
    actions, successors = moves
    levels = [Partition.from_key(fsp.states, key=fsp.extension)]
    while True:
        current = levels[-1]
        signatures = {}
        for state in fsp.states:
            signature = set()
            for action in actions:
                for target in successors(state, action):
                    signature.add((action, current.block_id_of(target)))
            signatures[state] = frozenset(signature)
        next_partition = Partition(list(_split_groups(current, signatures)))
        levels.append(next_partition)
        if len(next_partition) == len(current):
            return levels


def _split_groups(partition: Partition, signatures: dict[str, frozenset]) -> list[set[str]]:
    groups: list[set[str]] = []
    for block in partition:
        by_signature: dict[frozenset, set[str]] = {}
        for state in block:
            by_signature.setdefault(signatures[state], set()).add(state)
        groups.extend(by_signature.values())
    return groups


def _distinguish_at_level(
    fsp: FSP,
    first: str,
    second: str,
    level: int,
    levels: list[Partition],
    weak: bool,
    moves: _Moves,
) -> Formula:
    """Build a formula of modal depth ``level`` separating the two states.

    The formula nests one modality per level, so it is built with an
    explicit stack of pending diamonds rather than by recursion.
    """
    actions, successors = moves

    def separate(first: str, second: str, level: int) -> Formula | list:
        """The leaf formula at level 0, else a frame for the diamond to build.

        A frame is ``[negated, action, pending pairs, built conjuncts]``: a
        move of ``first`` that ``second`` cannot match up to the previous
        level, or failing that a move of ``second`` (and the diamond is
        negated); each pending pair still needs its own separating formula.
        """
        if level == 0:
            return ExtensionIs(fsp.extension(first))
        previous = levels[level - 1]
        for swap in (False, True):
            left, right = (second, first) if swap else (first, second)
            for action in actions:
                for target in successors(left, action):
                    candidates = successors(right, action)
                    if any(previous.same_block(target, other) for other in candidates):
                        continue
                    pending = [
                        (target, other, _separation_level(levels, target, other))
                        for other in candidates
                    ]
                    return [swap, action, pending, []]
        # The two states are not separated at this level after all (should not
        # happen when the caller picked the true separation level).
        raise AssertionError("states are not distinguishable at the requested level")

    top = separate(first, second, level)
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


def _separation_level(levels: list[Partition], first: str, second: str) -> int:
    for index, partition in enumerate(levels):
        if not partition.same_block(first, second):
            return index
    raise AssertionError("states are equivalent; no separation level exists")
