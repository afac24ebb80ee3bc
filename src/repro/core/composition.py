"""Composition operators on processes -- the "extended star expressions" of Section 6.

The paper's closing discussion extends star expressions with the genuinely
concurrent operators of CCS -- above all composition -- whose semantics is a
"direct product of states" construction: the representative process of the
whole is a product of the representative processes of the parts.  This module
provides those product constructions directly on :class:`~repro.core.fsp.FSP`
values, independent of the CCS term language:

* :func:`synchronous_product` -- both components move together on shared
  actions (the *intersection* operator mentioned in Section 6);
* :func:`interleaving_product` -- pure asynchronous interleaving;
* :func:`ccs_composition` -- CCS parallel composition: interleaving plus
  synchronisation of complementary actions (``a`` with ``a!``) into tau;
* :func:`restrict` and :func:`hide` -- the restriction operator and
  tau-hiding, the two ways of internalising channels;
* :func:`relabel` -- action renaming.

All constructions explore only the reachable part of the product, so the
result size is bounded by the product of the component sizes but is usually
far smaller.  Extensions of a product state are the union of the component
extensions (so acceptance in the standard model means "some component
accepts"); pass ``extension_mode="intersection"`` for the conjunctive reading.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping

from repro.core.actions import CO_SUFFIX, channel_closure, co_action as _co
from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP, TAU

__all__ = [
    "CO_SUFFIX",
    "PAIR_SEPARATOR",
    "ccs_composition",
    "hide",
    "interleaving_product",
    "pair_name",
    "relabel",
    "restrict",
    "synchronous_product",
]

#: Separator used in product-state names.  Deliberately plain ASCII so that
#: composed processes survive every serialisation path (``.aut`` headers,
#: JSON with ``ensure_ascii``, DOT labels) without escaping.
PAIR_SEPARATOR = "|"


def pair_name(left: str, right: str) -> str:
    """The canonical name of a product state, e.g. ``(p|q)``.

    Shared with the lazy products of :mod:`repro.explore` so that
    materialising a lazy product yields a process *equal* to the eager one.
    """
    return f"({left}{PAIR_SEPARATOR}{right})"


def _combine_extensions(
    first: FSP, second: FSP, left: str, right: str, mode: str
) -> frozenset[str]:
    if mode == "union":
        return first.extension(left) | second.extension(right)
    if mode == "intersection":
        return first.extension(left) & second.extension(right)
    raise InvalidProcessError(f"unknown extension mode {mode!r}")


def _explore_product(
    first: FSP,
    second: FSP,
    moves,
    alphabet: frozenset[str],
    extension_mode: str,
) -> FSP:
    """Generic reachable-product exploration.

    ``moves(left_state, right_state)`` yields ``(action, left', right')``
    triples describing the joint moves available from a product state.
    """
    start = (first.start, second.start)
    # Pair names must stay injective on the reachable product: a component
    # state that itself contains the separator could alias two distinct
    # pairs to one name, silently merging behaviours.  Detect and refuse
    # (the lazy route in repro.explore guards identically).
    owners: dict[str, tuple[str, str]] = {}

    def name_of(pair: tuple[str, str]) -> str:
        name = pair_name(*pair)
        previous = owners.setdefault(name, pair)
        if previous != pair:
            raise InvalidProcessError(
                f"product-state name collision: {name!r} names two distinct pairs"
            )
        return name

    seen = {start}
    queue: deque[tuple[str, str]] = deque([start])
    states: set[str] = set()
    transitions: set[tuple[str, str, str]] = set()
    extensions: set[tuple[str, str]] = set()
    while queue:
        pair = queue.popleft()
        left, right = pair
        name = name_of(pair)
        states.add(name)
        for variable in _combine_extensions(first, second, left, right, extension_mode):
            extensions.add((name, variable))
        for action, next_left, next_right in moves(left, right):
            target = (next_left, next_right)
            transitions.add((name, action, name_of(target)))
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return FSP(
        states=states,
        start=pair_name(*start),
        alphabet=alphabet,
        transitions=transitions,
        variables=first.variables | second.variables,
        extensions=extensions,
    )


def synchronous_product(first: FSP, second: FSP, extension_mode: str = "intersection") -> FSP:
    """The fully synchronous (intersection) product.

    Both components must take a transition with the same observable action for
    the product to move; tau-moves of either component are interleaved freely
    (they are local).  With ``extension_mode="intersection"`` and standard
    components the product accepts exactly the intersection of the two
    languages, which is the "intersection operator" reading of Section 6.
    """
    alphabet = first.alphabet & second.alphabet

    def moves(left: str, right: str):
        for target in first.successors(left, TAU):
            yield TAU, target, right
        for target in second.successors(right, TAU):
            yield TAU, left, target
        for action in alphabet:
            for left_target in first.successors(left, action):
                for right_target in second.successors(right, action):
                    yield action, left_target, right_target

    return _explore_product(first, second, moves, alphabet, extension_mode)


def interleaving_product(first: FSP, second: FSP, extension_mode: str = "union") -> FSP:
    """Pure asynchronous interleaving: either component moves, never both at once."""
    alphabet = first.alphabet | second.alphabet

    def moves(left: str, right: str):
        for action in first.enabled_actions(left):
            for target in first.successors(left, action):
                yield action, target, right
        for action in second.enabled_actions(right):
            for target in second.successors(right, action):
                yield action, left, target

    return _explore_product(first, second, moves, alphabet, extension_mode)


def ccs_composition(first: FSP, second: FSP, extension_mode: str = "union") -> FSP:
    """CCS parallel composition ``first | second`` on processes.

    Interleaving of all moves plus a tau-move whenever the two components can
    perform complementary actions (``a`` and ``a!``) simultaneously.  Matches
    the SOS rules in :mod:`repro.ccs.semantics`, but operates directly on
    state machines so it can be applied to processes that did not come from
    CCS terms (for example representative FSPs of star expressions -- the
    "extended star expressions" of Section 6).
    """
    alphabet = first.alphabet | second.alphabet

    def moves(left: str, right: str):
        for action in first.enabled_actions(left):
            for target in first.successors(left, action):
                yield action, target, right
        for action in second.enabled_actions(right):
            for target in second.successors(right, action):
                yield action, left, target
        for action in first.enabled_actions(left):
            if action == TAU:
                continue
            partner = _co(action)
            for left_target in first.successors(left, action):
                for right_target in second.successors(right, partner):
                    yield TAU, left_target, right_target

    return _explore_product(first, second, moves, alphabet, extension_mode)


def restrict(fsp: FSP, channels: Iterable[str]) -> FSP:
    """CCS restriction ``P \\ L``: transitions on the listed channels (and their
    co-actions) are removed; tau-moves are unaffected."""
    blocked = channel_closure(channels)
    transitions = {
        (src, action, dst)
        for src, action, dst in fsp.transitions
        if action == TAU or action not in blocked
    }
    return FSP(
        states=fsp.states,
        start=fsp.start,
        alphabet=fsp.alphabet - frozenset(blocked),
        transitions=transitions,
        variables=fsp.variables,
        extensions=fsp.extensions,
    ).restrict_to_reachable()


def hide(fsp: FSP, channels: Iterable[str]) -> FSP:
    """Hiding: transitions on the listed channels become tau-moves.

    This is the CSP-style internalisation; combined with
    :func:`interleaving_product` or :func:`ccs_composition` it produces the
    tau-rich processes on which observational equivalence does its work.
    """
    hidden = channel_closure(channels)
    transitions = {
        (src, TAU if action in hidden else action, dst)
        for src, action, dst in fsp.transitions
    }
    return FSP(
        states=fsp.states,
        start=fsp.start,
        alphabet=fsp.alphabet - frozenset(hidden),
        transitions=transitions,
        variables=fsp.variables,
        extensions=fsp.extensions,
    )


def relabel(fsp: FSP, mapping: Mapping[str, str]) -> FSP:
    """Relabelling ``P[f]``: rename observable actions according to ``mapping``.

    Actions not mentioned in the mapping are unchanged; tau cannot be renamed.
    Co-actions follow their channel automatically (renaming ``a`` to ``b``
    also renames ``a!`` to ``b!``).
    """
    if TAU in mapping:
        raise InvalidProcessError("tau cannot be relabelled")
    full_mapping: dict[str, str] = {}
    for old, new in mapping.items():
        full_mapping[old] = new
        full_mapping[_co(old)] = _co(new)

    def rename(action: str) -> str:
        if action == TAU:
            return action
        return full_mapping.get(action, action)

    transitions = {(src, rename(action), dst) for src, action, dst in fsp.transitions}
    alphabet = frozenset(rename(action) for action in fsp.alphabet)
    return FSP(
        states=fsp.states,
        start=fsp.start,
        alphabet=alphabet,
        transitions=transitions,
        variables=fsp.variables,
        extensions=fsp.extensions,
    )
