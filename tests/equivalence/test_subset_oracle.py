"""Differential oracle for the one subset construction behind approx_k and failure.

Language equivalence, each ``approx_k`` round and failure equivalence all run
one Hopcroft-Karp search over the bitset macrostates of a
:class:`~repro.equivalence.language.MacroMoves` table
(:func:`repro.equivalence.language.subset_search`); only what a macrostate
observes differs.  The oracles here are the routes that search replaced,
rebuilt from the definitions:

* ``k_observational_partition(fsp, k)`` for ``k = 0..3`` equals Theorem
  4.1(b)'s refinement with one determinised language comparison per state
  pair and block (``language_nfa(fsp, p, accepting=B_i)`` and the
  determinising oracle of ``tests/equivalence/dfa_oracle.py``), and
  :func:`~repro.equivalence.kobs.separation_level`, which runs on the new
  route, is the first level those partitions separate at;
* failure verdicts equal a breadth-first search over pairs of name-level
  macro-states comparing maximal refusals; the string returned is no longer
  than that search's, it separates the refusal information, and the
  engine's :class:`~repro.engine.verdict.RefusalWitness` verifies;
* under a search bound, wherever the oracle answers, the new route gives
  the same answer.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os
from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import StateSpaceLimitError
from repro.core.fsp import FSP, TAU, from_transitions
from repro.core.weak import WeakKernel
from repro.engine import Engine
from repro.equivalence.failure import failure_distinguishing_string, maximal_refusals
from repro.equivalence.kobs import k_observational_partition, separation_level
from repro.equivalence.language import language_nfa
from repro.partition.partition import Partition
from tests.equivalence.dfa_oracle import distinguishing_word
from tests.property.strategies import fsp_strategy, mixed_fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LEVELS = (0, 1, 2, 3)
BOUNDS = (1, 2, 3, 5, 8)


def restricted_fsp(max_states: int = 6):
    """A small restricted process (every state accepting) with tau."""
    return fsp_strategy(max_states=max_states, all_accepting=True, max_transitions=14)


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------
def oracle_k_partition(fsp: FSP, k: int, max_states: int | None = None) -> Partition:
    """``approx_k`` by Theorem 4.1(b): one determinised comparison per pair and block."""
    partition = Partition.from_key(fsp.states, key=fsp.extension)
    for _ in range(k):
        blocks = [frozenset(block) for block in partition]

        def same_languages(first: str, second: str) -> bool:
            return all(
                distinguishing_word(
                    language_nfa(fsp, first, accepting=block),
                    language_nfa(fsp, second, accepting=block),
                    max_states=max_states,
                )
                is None
                for block in blocks
            )

        new_groups: list[set[str]] = []
        for block in partition:
            groups: list[set[str]] = []
            for state in sorted(block):
                for group in groups:
                    if same_languages(state, next(iter(group))):
                        group.add(state)
                        break
                else:
                    groups.append({state})
            new_groups.extend(groups)
        refined = Partition(new_groups)
        if len(refined) == len(partition):
            break
        partition = refined
    return partition


def oracle_failure_string(
    fsp: FSP, first: str, second: str, max_pairs: int | None = None
) -> tuple[str, ...] | None:
    """A shortest failure-distinguishing string by BFS over pairs of name-level macro-states.

    ``max_pairs`` bounds the pairs the search holds, counting every pair but
    the one of two empty macro-states.
    """
    kernel = WeakKernel.from_fsp(fsp)
    start = (kernel.epsilon_closure(first), kernel.epsilon_closure(second))
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        (left, right), string = queue.popleft()
        if bool(left) != bool(right):
            return string
        if maximal_refusals(fsp, left, kernel) != maximal_refusals(fsp, right, kernel):
            return string
        for action in sorted(fsp.alphabet):
            key = (
                kernel.weak_successors_of_set(left, action),
                kernel.weak_successors_of_set(right, action),
            )
            if (key[0] or key[1]) and key not in seen:
                seen.add(key)
                if max_pairs is not None and len(seen) > max_pairs:
                    raise StateSpaceLimitError(f"more than {max_pairs} macro-state pairs")
                queue.append((key, string + (action,)))
    return None


def _answer(route, *args, **kwargs):
    """The route's answer and whether it gave one (not when its bound stopped it)."""
    try:
        return route(*args, **kwargs), True
    except StateSpaceLimitError:
        return None, False


# ----------------------------------------------------------------------
# approx_k
# ----------------------------------------------------------------------
@ORACLE_SETTINGS
@given(fsp=mixed_fsp_strategy(), data=st.data())
def test_k_partitions_equal_the_per_block_determinisation(fsp, data):
    oracle = [oracle_k_partition(fsp, k) for k in LEVELS]
    for k in LEVELS:
        assert k_observational_partition(fsp, k) == oracle[k], k
    states = sorted(fsp.states)
    first, second = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    split = [k for k in LEVELS if not oracle[k].same_block(first, second)]
    expected = split[0] if split else None
    assert separation_level(fsp, first, second, max_level=LEVELS[-1]) == expected


@ORACLE_SETTINGS
@given(fsp=mixed_fsp_strategy(max_states=6), bound=st.sampled_from(BOUNDS))
def test_bounded_k_partitions_answer_wherever_the_oracle_does(fsp, bound):
    for k in (1, 2):
        expected, answered = _answer(oracle_k_partition, fsp, k, max_states=bound)
        if answered:
            assert k_observational_partition(fsp, k, max_subset_states=bound) == expected


# ----------------------------------------------------------------------
# failure
# ----------------------------------------------------------------------
@ORACLE_SETTINGS
@given(fsp=restricted_fsp(max_states=7), data=st.data())
def test_failure_strings_match_the_pair_search(fsp, data):
    states = sorted(fsp.states)
    first, second = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    string = failure_distinguishing_string(fsp, first, second)
    expected = oracle_failure_string(fsp, first, second)
    assert (string is None) == (expected is None)
    if string is None:
        return
    assert len(string) <= len(expected)
    kernel = WeakKernel.from_fsp(fsp)
    left = kernel.string_derivatives(first, string)
    right = kernel.string_derivatives(second, string)
    assert maximal_refusals(fsp, left, kernel) != maximal_refusals(fsp, right, kernel)


@ORACLE_SETTINGS
@given(first=restricted_fsp(), second=restricted_fsp())
def test_engine_failure_verdicts_and_witnesses(first, second):
    verdict = Engine().check(first, second, "failure")
    union = first.disjoint_union(second)
    expected = oracle_failure_string(union, "L:" + first.start, "R:" + second.start)
    assert verdict.equivalent == (expected is None)
    if verdict.equivalent:
        return
    assert verdict.verify_witness() is True
    assert len(verdict.witness.string) <= len(expected)


@ORACLE_SETTINGS
@given(fsp=restricted_fsp(max_states=7), bound=st.sampled_from(BOUNDS), data=st.data())
def test_bounded_failure_answers_wherever_the_oracle_does(fsp, bound, data):
    states = sorted(fsp.states)
    first, second = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    expected, answered = _answer(oracle_failure_string, fsp, first, second, max_pairs=bound)
    if answered:
        string = failure_distinguishing_string(fsp, first, second, max_macro_states=bound)
        assert (string is None) == (expected is None)


def test_a_missing_derivative_is_not_a_deadlocked_one():
    # tau.a.0 + tau.0 against 0: both refuse every action at the empty
    # string, but only the left has an a-derivative, and it is deadlocked:
    # (a, {}) is a failure of the left alone.
    left = from_transitions(
        [("p", TAU, "x"), ("x", "a", "d"), ("p", TAU, "e")], start="p", all_accepting=True
    )
    right = from_transitions([], start="q", alphabet={"a"}, all_accepting=True)
    union = left.disjoint_union(right)
    assert oracle_failure_string(union, "L:p", "R:q") == ("a",)
    assert failure_distinguishing_string(union, "L:p", "R:q") == ("a",)
    verdict = Engine().check(left, right, "failure")
    assert not verdict.equivalent
    assert verdict.verify_witness() is True
