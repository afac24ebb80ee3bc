"""Differential oracle for the branching-bisimulation pre-quotient.

``Process.observational_partition`` saturates and refines only the quotient
by branching bisimilarity (:mod:`repro.partition.branching`) and lifts the
blocks back.  A bug there is a silent wrong verdict for every weak notion,
so each property compares the fast path with a route that never builds the
pre-quotient:

* the partition equals the paper's direct route (Theorem 4.1(a) on the
  whole process) on both backends, and Definition 2.2.2's fixed point on
  small inputs;
* the pre-quotient's blocks are exactly the largest relation satisfying the
  branching transfer condition, computed here from the definition;
* engine verdicts under observational, failure and ``k``-observational
  equivalence equal the un-quotiented routes;
* ``minimized_observational()`` equals the free ``minimize_observational``
  on one pass of each cold workload of the repo benchmark.

The random processes mix extension sets, close tau-cycles that cross them,
and keep some states deadlocked.  ``REDUCTION_ORACLE_EXAMPLES`` scales the
hypothesis example budget (the CI nightly lane raises it).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fsp import ACCEPT, FSP, TAU, from_transitions
from repro.core.lts import LTS
from repro.engine import Engine, Process
from repro.equivalence.failure import failure_distinguishing_string
from repro.equivalence.kobs import k_observational_equivalent, limited_observational_partition
from repro.equivalence.minimize import minimize_observational
from repro.equivalence.observational import observational_partition, observationally_equivalent
from repro.generators.families import tau_ladder
from repro.partition import vectorized
from repro.partition.branching import branching_quotient
from repro.utils.matrices import HAVE_NUMPY
from repro.utils.serialization import from_dict

ROOT = Path(__file__).resolve().parents[2]

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = ("python", "vector") if HAVE_NUMPY else ("python",)
EXTENSIONS = (frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"}))
ACTIONS = ("a", "b", TAU, TAU)


@st.composite
def weak_fsp(draw, max_states: int = 8, all_accepting: bool = False):
    """A small FSP with mixed extension sets, a tau-cycle and deadlocks."""
    count = draw(st.integers(min_value=1, max_value=max_states))
    states = [f"s{i}" for i in range(count)]
    if all_accepting:
        extension = dict.fromkeys(states, frozenset({ACCEPT}))
    else:
        extension = {state: draw(st.sampled_from(EXTENSIONS)) for state in states}
    arc = st.tuples(st.sampled_from(states), st.sampled_from(ACTIONS), st.sampled_from(states))
    arcs = set(draw(st.lists(arc, max_size=3 * count)))
    ring = draw(st.lists(st.sampled_from(states), unique=True, max_size=4))
    if len(ring) > 1:
        arcs |= {(state, TAU, ring[(i + 1) % len(ring)]) for i, state in enumerate(ring)}
    dead = set(draw(st.lists(st.sampled_from(states), unique=True, max_size=max(1, count // 3))))
    return FSP(
        states=states,
        start=states[0],
        alphabet=("a", "b"),
        transitions={(src, act, dst) for src, act, dst in arcs if src not in dead},
        variables=[ACCEPT] if all_accepting else ["x", "y"],
        extensions=[(state, var) for state, ext in extension.items() for var in ext],
    )


def stutter(fsp: FSP, picks: list[int]) -> FSP:
    """Route the picked arcs through a fresh state that only tau-steps on.

    The fresh state has its target's extension set, so it is branching
    bisimilar to that target and the result is equivalent to ``fsp``.
    """
    transitions = sorted(fsp.transitions)
    chosen = {pick % len(transitions) for pick in picks} if transitions else set()
    out, states, extensions = set(), set(fsp.states), set(fsp.extensions)
    for index, (src, act, dst) in enumerate(transitions):
        if index not in chosen:
            out.add((src, act, dst))
            continue
        middle = f"m{index}"
        states.add(middle)
        extensions |= {(middle, var) for var in fsp.extension(dst)}
        out |= {(src, act, middle), (middle, TAU, dst)}
    return FSP(
        states=states,
        start=fsp.start,
        alphabet=fsp.alphabet,
        transitions=out,
        variables=fsp.variables,
        extensions=extensions,
    )


@st.composite
def weak_pair(draw, all_accepting: bool = False):
    """Equivalent by construction, a near miss, or two unrelated processes."""
    left = draw(weak_fsp(max_states=6, all_accepting=all_accepting))
    kind = draw(st.sampled_from(("stutter", "near", "random")))
    if kind == "random":
        return left, draw(weak_fsp(max_states=6, all_accepting=all_accepting))
    right = stutter(left, draw(st.lists(st.integers(0, 50), max_size=3)))
    if kind == "near":
        target = draw(st.sampled_from(sorted(right.states)))
        extra = (right.start, draw(st.sampled_from(ACTIONS)), target)
        right = FSP(
            states=right.states,
            start=right.start,
            alphabet=right.alphabet,
            transitions=set(right.transitions) | {extra},
            variables=right.variables,
            extensions=right.extensions,
        )
    return left, right


# ----------------------------------------------------------------------
# the branching transfer condition, from the definition
# ----------------------------------------------------------------------
def largest_branching_bisimulation(fsp: FSP) -> set[tuple[str, str]]:
    """The greatest fixed point of the branching transfer condition.

    ``s R t`` requires ``E(s) = E(t)`` and, for every ``s -a-> s'``, either
    ``a = tau`` and ``s' R t``, or a path ``t -tau-> ... -tau-> t'' -a-> t'``
    whose states up to ``t''`` are all related to ``s``, with ``s' R t'``.
    With extension sets as state labels the path has to stay among states
    related to ``s`` (the stuttering condition); a tau-path through another
    extension set does not match.  Pairs that fail are removed until none
    does.
    """
    states = sorted(fsp.states)
    relation = {(s, t) for s in states for t in states if fsp.extension(s) == fsp.extension(t)}
    changed = True
    while changed:
        changed = False
        for s, t in sorted(relation):
            if not _transfers(fsp, relation, s, t):
                relation.discard((s, t))
                relation.discard((t, s))
                changed = True
    return relation


def _stutter_reach(fsp: FSP, relation, s: str, t: str) -> set[str]:
    """States tau-reachable from ``t`` through states related to ``s``."""
    seen, stack = {t}, [t]
    while stack:
        for target in fsp.successors(stack.pop(), TAU):
            if target not in seen and (s, target) in relation:
                seen.add(target)
                stack.append(target)
    return seen


def _transfers(fsp: FSP, relation, s: str, t: str) -> bool:
    reach = _stutter_reach(fsp, relation, s, t)
    for action, target in fsp.transitions_from(s):
        if action == TAU and (target, t) in relation:
            continue
        if not any(
            (target, reached) in relation
            for middle in reach
            for reached in fsp.successors(middle, action)
        ):
            return False
    return True


def classes(relation: set[tuple[str, str]], states) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(t for t in states if (s, t) in relation) for s in states)


def prequotient_blocks(fsp: FSP) -> frozenset[frozenset[str]]:
    lts = LTS.from_fsp(fsp, include_tau=True)
    _quotient, block_of = branching_quotient(lts)
    blocks: dict[int, set[str]] = {}
    for name, block in zip(lts.state_names, block_of):
        blocks.setdefault(block, set()).add(name)
    return frozenset(frozenset(members) for members in blocks.values())


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@ORACLE_SETTINGS
@given(weak_fsp())
def test_partition_equals_the_direct_route(fsp):
    for backend in BACKENDS:
        fast = Process(fsp).observational_partition(backend=backend)
        assert fast == observational_partition(fsp, backend=backend)
    if fsp.num_states <= 6:
        assert fast == limited_observational_partition(fsp)


@ORACLE_SETTINGS
@given(weak_fsp())
def test_prequotient_is_the_coarsest_branching_bisimulation(fsp):
    blocks = prequotient_blocks(fsp)
    relation = {(s, t) for block in blocks for s in block for t in block}
    assert all(fsp.extension(s) == fsp.extension(t) for s, t in relation)
    assert all(_transfers(fsp, relation, s, t) for s, t in relation)
    assert blocks == classes(largest_branching_bisimulation(fsp), fsp.states)


@ORACLE_SETTINGS
@given(weak_pair())
def test_weak_verdicts_equal_the_unquotiented_routes(pair):
    left, right = pair
    union = left.disjoint_union(right)
    first, second = "L:" + left.start, "R:" + right.start
    verdict = Engine().check(left, right, "observational")
    assert verdict.equivalent == observationally_equivalent(union, first, second)
    assert verdict.equivalent or verdict.verify_witness() is True
    for k in (1, 2):
        fast = Engine().check(left, right, "k-observational", k=k)
        assert fast.equivalent == k_observational_equivalent(union, first, second, k)
        assert fast.equivalent or fast.verify_witness() is True


@ORACLE_SETTINGS
@given(weak_pair(all_accepting=True))
def test_failure_verdicts_equal_the_unquotiented_route(pair):
    left, right = pair
    union = left.disjoint_union(right)
    fast = Engine().check(left, right, "failure")
    direct = failure_distinguishing_string(union, "L:" + left.start, "R:" + right.start)
    assert fast.equivalent == (direct is None)
    assert fast.equivalent or fast.verify_witness() is True


# ----------------------------------------------------------------------
# hand-built cases
# ----------------------------------------------------------------------
def test_tau_cycle_across_extension_sets_is_not_collapsed():
    # p and q lie on one tau-cycle but only p accepts: p can silently reach
    # a non-accepting state, the accepting deadlock cannot.  Collapsing the
    # plain tau-SCC {p, q} into p would answer "equivalent".
    cycle = from_transitions([("p", TAU, "q"), ("q", TAU, "p")], start="p", accepting=["p"])
    deadlock = from_transitions([], start="d", accepting=["d"])
    assert branching_quotient(LTS.from_fsp(cycle))[0].n == 2
    assert len(Process(cycle).observational_partition()) == 2
    verdict = Engine().check(cycle, deadlock, "observational", align=True)
    assert not verdict.equivalent
    assert verdict.verify_witness() is True


def test_a_components_own_tau_arc_is_not_a_tau_step():
    # s2's tau self-loop stays inside its tau-SCC.  Read as a tau-step to
    # another component it lets s0, which can keep doing a, merge with s2,
    # whose only a-move deadlocks.
    fsp = from_transitions(
        [("s0", "a", "s0"), ("s0", TAU, "s2"), ("s2", "a", "s1"), ("s2", TAU, "s2")], start="s0"
    )
    assert prequotient_blocks(fsp) == classes(largest_branching_bisimulation(fsp), fsp.states)
    for backend in BACKENDS:
        fast = Process(fsp).observational_partition(backend=backend)
        assert fast == observational_partition(fsp, backend=backend)
    assert len(fast) == 3


def assert_prequotient_is_the_definition(fsp: FSP) -> None:
    assert prequotient_blocks(fsp) == classes(largest_branching_bisimulation(fsp), fsp.states)
    for backend in BACKENDS:
        fast = Process(fsp).observational_partition(backend=backend)
        assert fast == observational_partition(fsp, backend=backend)


def test_a_lone_tau_step_into_another_extension_set_is_observed():
    # p's only move is a tau-step into the accepting q, which is not inert:
    # p's signature is (tau, [q]), not q's own {(a, [r])}.  Read as q's, it
    # would equal the signature of p2, which does a itself.
    fsp = from_transitions(
        [("p", TAU, "q"), ("q", "a", "r"), ("p2", "a", "r")], start="p", accepting=["q"]
    )
    assert_prequotient_is_the_definition(fsp)
    blocks = prequotient_blocks(fsp)
    assert frozenset({"p"}) in blocks and frozenset({"p2"}) in blocks


def test_a_lone_inert_tau_step_does_not_hide_observable_arcs():
    # c has a b-move besides its inert tau-step to d, so its signature is not d's.
    fsp = from_transitions(
        [("c", TAU, "d"), ("c", "b", "z"), ("d", "a", "z")], start="c", all_accepting=True
    )
    assert_prequotient_is_the_definition(fsp)
    assert frozenset({"c"}) in prequotient_blocks(fsp)


def test_a_lone_tau_component_follows_its_successor_after_a_split():
    # Round 1 puts c, d, d2, g and h in one block: each does a into it.  Then
    # e (which does b) and e2 split off, so d and d2 change signature in round
    # 2 while g and h keep theirs: d moves to a new block, and c, whose only
    # move is the inert tau-step to d, must be recomputed and move with it.
    arcs = [
        ("c", TAU, "d"),
        ("d", "a", "e"),
        ("e", "b", "f"),
        ("d2", "a", "e2"),
        ("g", "a", "h"),
        ("h", "a", "h"),
    ]
    fsp = from_transitions(arcs, start="c", all_accepting=True)
    assert_prequotient_is_the_definition(fsp)
    blocks = prequotient_blocks(fsp)
    assert frozenset({"c", "d"}) in blocks and frozenset({"g", "h"}) in blocks


def test_auto_resolves_on_the_prequotient(monkeypatch):
    # tau_ladder(300) has 601 states, over the vector threshold, but its
    # branching quotient has 2: auto must not send that to the vector kernel.
    def refuse(lts, block_of, num_blocks):
        raise AssertionError("auto sent a 2-state quotient to the vector kernel")

    monkeypatch.setattr(vectorized, "vector_refine_lts", refuse)
    process = tau_ladder(300)
    assert Engine().check(process, process, "observational").equivalent
    assert Process(process).minimized_observational(backend="auto").num_states == 2


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy is not installed")
def test_explicit_vector_backend_is_honoured(monkeypatch):
    calls = []
    original = vectorized.vector_refine_lts

    def spy(lts, block_of, num_blocks):
        calls.append(lts.n)
        return original(lts, block_of, num_blocks)

    monkeypatch.setattr(vectorized, "vector_refine_lts", spy)
    partition = Process(tau_ladder(20)).observational_partition(backend="vector")
    assert calls == [2]
    assert partition == observational_partition(tau_ladder(20))


def _load_perfbench_inputs():
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perfbench_inputs", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["cold_tau", "cold_flat"])
def test_minimized_observational_equals_the_free_function_on_a_cold_pass(monkeypatch, workload):
    inputs = _load_perfbench_inputs()
    monkeypatch.setattr(inputs, "PASSES", 1)
    [cases] = inputs.cold_cases(workload, seed=1)
    seen: set[FSP] = set()
    for case in cases:
        for document in (case.left, case.right):
            fsp = from_dict(document)
            if fsp not in seen:
                seen.add(fsp)
                assert Process(fsp).minimized_observational() == minimize_observational(fsp)
