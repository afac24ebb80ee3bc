"""Differential oracle for the explorer's weak moves and trace replay.

:class:`repro.explore.onthefly._Explorer` computes tau-closures and weak
moves lazily, and the replay that certifies every on-the-fly inequivalence
steps whole tau-closed macrostates with one closure search per step.  The
oracle is the eager route on the materialised system: the
:class:`~repro.core.weak.WeakKernel` for closures, weak successors and weak
string derivatives, with implicit states matched to materialised ones by
:meth:`~repro.explore.implicit.ImplicitLTS.state_name`.

For random FSPs and random composition trees:

* ``closure(s)`` and ``weak_successors(s, a)`` equal the eager sets for
  every reachable ``s`` and every action ``a``;
* along every trace ``check_implicit`` reports and every action string of
  length at most 3, under both notions, the replay's macrostates equal the
  eager derivative sets, and ``_verify_trace`` returns the ``(verified,
  in_left)`` of a replay over those sets and their extension profiles.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it via a workflow input).
"""

from __future__ import annotations

import itertools

from hypothesis import given

from repro.core.fsp import EPSILON, FSP, TAU
from repro.core.weak import WeakKernel
from repro.explore.implicit import as_implicit, materialize
from repro.explore.onthefly import _Explorer, _replay_step, _verify_trace, check_implicit
from repro.explore.system import build_implicit
from tests.explore.test_reduction_oracle import ORACLE_SETTINGS, system_spec_strategy
from tests.property.strategies import fsp_strategy

ACTIONS = ("a", "b")
#: every action string of length at most 3 over the actions and tau.
STRINGS = [
    string for length in range(4) for string in itertools.product(ACTIONS + (TAU,), repeat=length)
]


def _implicit(operand):
    return as_implicit(operand) if isinstance(operand, FSP) else build_implicit(operand)


def _reachable(node) -> list:
    seen = {node.initial()}
    order = [node.initial()]
    for state in order:
        for _action, target in node.successors(state):
            if target not in seen:
                seen.add(target)
                order.append(target)
    return order


def _assert_moves_match(operand) -> None:
    node = _implicit(operand)
    fsp = materialize(node)
    kernel = WeakKernel.from_fsp(fsp)
    states = _reachable(node)
    # ``close`` searches a state afresh unless its closure is memoised, and
    # then takes that closure whole: the cold explorer meets few memoised
    # closures, the warm one memoises every closure before any weak move.
    cold, warm = _Explorer(node), _Explorer(node)
    for state in states:
        warm.closure(state)

    def names(members) -> frozenset:
        return frozenset(node.state_name(member) for member in members)

    actions = sorted((set(fsp.alphabet) | set(ACTIONS)) - {EPSILON, TAU})
    for state in states:
        name = node.state_name(state)
        for explorer in (cold, warm):
            assert names(explorer.closure(state)) == kernel.epsilon_closure(name)
            for action in actions:
                assert names(explorer.weak_successors(state, action)) == kernel.weak_successors(
                    name, action
                ), f"weak {action!r}-successors of {name!r}"


def _derivatives(fsp: FSP, string, weak: bool) -> list[frozenset]:
    """The states the start reaches by each prefix of ``string``, shortest first."""
    if weak:
        kernel = WeakKernel.from_fsp(fsp)
        steps = [action for action in string if action != TAU]
        return [kernel.string_derivatives(fsp.start, steps[:k]) for k in range(len(steps) + 1)]
    reached = [frozenset({fsp.start})]
    for action in string:
        reached.append(
            frozenset(target for state in reached[-1] for target in fsp.successors(state, action))
        )
    return reached


def _macrostates(node, string, weak: bool) -> list[frozenset]:
    """The replay's macrostates for each prefix of ``string``, as state names."""
    explorer = _Explorer(node)
    start = node.initial()
    macro = explorer.closure(start) if weak else frozenset({start})
    reached = [macro]
    for action in string:
        if not (weak and action == TAU):
            macro = _replay_step(explorer, macro, action, weak)
            reached.append(macro)
    return [frozenset(node.state_name(state) for state in macro) for macro in reached]


def _eager_replay(left: FSP, right: FSP, trace, weak: bool) -> tuple[bool, bool | None]:
    """``_verify_trace`` restated over the eager derivative sets."""
    lefts, rights = _derivatives(left, trace, weak), _derivatives(right, trace, weak)
    for left_macro, right_macro in zip(lefts[1:], rights[1:]):
        if bool(left_macro) != bool(right_macro):
            return True, bool(left_macro)
    left_profiles = {left.extension(state) for state in lefts[-1]}
    right_profiles = {right.extension(state) for state in rights[-1]}
    if left_profiles != right_profiles:
        return True, bool(left_profiles - right_profiles)
    return False, None


def _assert_replays_match(left, right) -> None:
    left_fsp, right_fsp = materialize(_implicit(left)), materialize(_implicit(right))
    traces = list(STRINGS)
    for notion in ("strong", "observational"):
        result = check_implicit(left, right, notion)
        if result.trace is not None:
            traces.append(result.trace)
    for trace in traces:
        for weak in (False, True):
            for operand, fsp in ((left, left_fsp), (right, right_fsp)):
                assert _macrostates(_implicit(operand), trace, weak) == _derivatives(
                    fsp, trace, weak
                ), f"{'weak' if weak else 'strong'} macrostates along {trace!r}"
            replayed = _verify_trace(
                _Explorer(_implicit(left)), _Explorer(_implicit(right)), trace, weak
            )
            assert replayed == _eager_replay(left_fsp, right_fsp, trace, weak), (
                f"{'weak' if weak else 'strong'} replay of {trace!r}"
            )


@given(process=fsp_strategy())
@ORACLE_SETTINGS
def test_weak_moves_match_the_eager_route_on_fsps(process):
    _assert_moves_match(process)


@given(spec=system_spec_strategy())
@ORACLE_SETTINGS
def test_weak_moves_match_the_eager_route_on_trees(spec):
    _assert_moves_match(spec)


@given(left=fsp_strategy(), right=fsp_strategy())
@ORACLE_SETTINGS
def test_replay_matches_eager_derivatives_on_fsp_pairs(left, right):
    _assert_replays_match(left, right)


@given(left=system_spec_strategy(), right=system_spec_strategy())
@ORACLE_SETTINGS
def test_replay_matches_eager_derivatives_on_trees(left, right):
    _assert_replays_match(left, right)
