"""Unit tests for the FSP value object and builder (Definition 2.1.1)."""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidProcessError
from repro.core.fsp import (
    ACCEPT,
    FSP,
    TAU,
    FSPBuilder,
    from_transitions,
    single_state_process,
)
from tests.property.strategies import mixed_fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestConstruction:
    def test_minimal_process(self):
        process = single_state_process()
        assert process.num_states == 1
        assert process.num_transitions == 0
        assert process.is_accepting(process.start)

    def test_non_accepting_single_state(self):
        process = single_state_process(accepting=False)
        assert not process.is_accepting(process.start)
        assert process.accepting_states() == frozenset()

    def test_builder_adds_states_from_transitions(self):
        builder = FSPBuilder()
        builder.add_transition("p", "a", "q")
        process = builder.build(start="p")
        assert process.states == frozenset({"p", "q"})
        assert process.alphabet == frozenset({"a"})

    def test_builder_tau_not_in_alphabet(self):
        builder = FSPBuilder()
        builder.add_transition("p", TAU, "q")
        process = builder.build(start="p")
        assert TAU not in process.alphabet
        assert process.has_tau()

    def test_builder_mark_all_accepting(self):
        builder = FSPBuilder()
        builder.add_transition("p", "a", "q")
        builder.mark_all_accepting()
        process = builder.build(start="p")
        assert process.accepting_states() == frozenset({"p", "q"})

    def test_start_must_be_state(self):
        with pytest.raises(InvalidProcessError):
            FSP(states=["p"], start="q", alphabet=["a"], transitions=[])

    def test_transition_action_must_be_known(self):
        with pytest.raises(InvalidProcessError):
            FSP(states=["p", "q"], start="p", alphabet=["a"], transitions=[("p", "b", "q")])

    def test_transition_states_must_exist(self):
        with pytest.raises(InvalidProcessError):
            FSP(states=["p"], start="p", alphabet=["a"], transitions=[("p", "a", "missing")])

    def test_alphabet_cannot_contain_tau(self):
        with pytest.raises(InvalidProcessError):
            FSP(states=["p"], start="p", alphabet=[TAU], transitions=[])

    def test_variables_disjoint_from_actions(self):
        with pytest.raises(InvalidProcessError):
            FSP(states=["p"], start="p", alphabet=["a"], transitions=[], variables=["a"])

    def test_extension_variable_must_be_declared(self):
        with pytest.raises(InvalidProcessError):
            FSP(
                states=["p"],
                start="p",
                alphabet=[],
                transitions=[],
                variables=["x"],
                extensions=[("p", "y")],
            )

    def test_empty_state_set_rejected(self):
        with pytest.raises(InvalidProcessError):
            FSP(states=[], start="p", alphabet=[], transitions=[])


class TestAccessors:
    def test_successors_and_predecessors(self, branching_process):
        assert branching_process.successors("s", "a") == frozenset({"l", "r"})
        assert branching_process.predecessors("t", "b") == frozenset({"l"})
        assert branching_process.successors("s", "b") == frozenset()

    def test_transitions_from(self, branching_process):
        assert branching_process.transitions_from("s") == frozenset({("a", "l"), ("a", "r")})

    def test_enabled_actions(self, branching_process):
        assert branching_process.enabled_actions("s") == frozenset({"a"})
        assert branching_process.enabled_actions("t") == frozenset()

    def test_extension_unknown_state(self, branching_process):
        with pytest.raises(InvalidProcessError):
            branching_process.extension("nope")

    def test_accepting_states(self, branching_process):
        assert branching_process.accepting_states() == frozenset({"t"})

    def test_counts(self, branching_process):
        assert branching_process.num_states == 4
        assert branching_process.num_transitions == 4

    def test_has_tau(self, tau_process, branching_process):
        assert tau_process.has_tau()
        assert not branching_process.has_tau()


class TestGraphOperations:
    def test_reachable_states(self):
        process = from_transitions(
            [("a", "go", "b"), ("c", "go", "d")], start="a", all_accepting=True
        )
        assert process.reachable_states() == frozenset({"a", "b"})
        assert process.reachable_states("c") == frozenset({"c", "d"})

    def test_restrict_to_reachable(self):
        process = from_transitions(
            [("a", "go", "b"), ("c", "go", "d")], start="a", all_accepting=True
        )
        reachable = process.restrict_to_reachable()
        assert reachable.states == frozenset({"a", "b"})
        assert reachable.num_transitions == 1

    def test_rename_states_prefix(self, simple_chain):
        renamed = simple_chain.rename_states(prefix="X")
        assert renamed.states == frozenset({"Xc0", "Xc1", "Xc2"})
        assert renamed.start == "Xc0"
        assert renamed.num_transitions == simple_chain.num_transitions

    def test_rename_states_mapping_must_be_bijection(self, simple_chain):
        with pytest.raises(InvalidProcessError):
            simple_chain.rename_states({"c0": "x", "c1": "x", "c2": "y"})

    def test_rename_states_must_cover(self, simple_chain):
        with pytest.raises(InvalidProcessError):
            simple_chain.rename_states({"c0": "x"})

    def test_with_start(self, simple_chain):
        rerooted = simple_chain.with_start("c1")
        assert rerooted.start == "c1"
        assert rerooted.states == simple_chain.states

    def test_with_start_unknown(self, simple_chain):
        with pytest.raises(InvalidProcessError):
            simple_chain.with_start("zz")

    def test_with_alphabet_superset(self, simple_chain):
        extended = simple_chain.with_alphabet({"a", "b"})
        assert extended.alphabet == frozenset({"a", "b"})

    def test_with_alphabet_must_cover_used_actions(self, simple_chain):
        with pytest.raises(InvalidProcessError):
            simple_chain.with_alphabet({"b"})

    def test_disjoint_union(self, simple_chain, branching_process):
        combined = simple_chain.with_alphabet({"a", "b", "c"}).disjoint_union(
            branching_process.with_alphabet({"a", "b", "c"})
        )
        assert combined.num_states == simple_chain.num_states + branching_process.num_states
        assert combined.start == "L:c0"
        assert "R:s" in combined.states


class TestEqualityAndRepr:
    def test_equality_is_structural(self, simple_chain):
        clone = from_transitions(
            [("c0", "a", "c1"), ("c1", "a", "c2")],
            start="c0",
            all_accepting=True,
        )
        assert clone == simple_chain
        assert hash(clone) == hash(simple_chain)

    def test_inequality(self, simple_chain, branching_process):
        assert simple_chain != branching_process

    def test_equality_with_other_type(self, simple_chain):
        assert simple_chain != "not a process"

    def test_repr_mentions_sizes(self, simple_chain):
        text = repr(simple_chain)
        assert "states=3" in text
        assert "transitions=2" in text

    def test_describe_lists_states(self, simple_chain):
        description = simple_chain.describe()
        assert "c0" in description and "--a-->" in description


class TestFromTransitions:
    def test_all_accepting_overrides_accepting(self):
        process = from_transitions(
            [("p", "a", "q")], start="p", accepting=["q"], all_accepting=True
        )
        assert process.accepting_states() == frozenset({"p", "q"})

    def test_explicit_alphabet_extension(self):
        process = from_transitions([("p", "a", "q")], start="p", alphabet={"b"})
        assert process.alphabet == frozenset({"a", "b"})

    def test_accept_marker_is_standard_variable(self):
        process = from_transitions([("p", "a", "q")], start="p", accepting=["q"])
        assert process.extension("q") == frozenset({ACCEPT})
        assert process.extension("p") == frozenset()


# ----------------------------------------------------------------------
# the successor index against the relation it indexes
# ----------------------------------------------------------------------
def _reach(transitions, origin: str) -> frozenset[str]:
    seen = {origin}
    while True:
        more = {dst for src, _, dst in transitions if src in seen} - seen
        if not more:
            return frozenset(seen)
        seen |= more


def _describe(fsp: FSP) -> str:
    lines = [f"FSP with {fsp.num_states} states over {sorted(fsp.alphabet)}"]
    lines.append(f"  start: {fsp.start}")
    for state in sorted(fsp.states):
        ext = sorted(var for owner, var in fsp.extensions if owner == state)
        lines.append(f"  state {state}" + (f"  {{{', '.join(ext)}}}" if ext else ""))
        lines += [f"    --{a}--> {d}" for s, a, d in sorted(fsp.transitions) if s == state]
    return "\n".join(lines)


def assert_index_matches_the_relation(fsp: FSP) -> None:
    """Every index query equals its value computed from ``transitions`` and ``extensions``."""
    arcs = fsp.transitions
    for state in fsp.states:
        out = {(a, d) for s, a, d in arcs if s == state}
        assert fsp.transitions_from(state) == out
        assert fsp.enabled_actions(state) == {a for a, _ in out}
        for action in sorted(fsp.alphabet | {TAU}):
            assert fsp.successors(state, action) == {d for a, d in out if a == action}
            assert fsp.predecessors(state, action) == {
                s for s, a, d in arcs if (a, d) == (action, state)
            }
        reach = _reach(arcs, state)
        assert fsp.reachable_states(state) == reach
        assert fsp.restrict_to_reachable(state) == FSP(
            states=reach,
            start=state,
            alphabet=fsp.alphabet,
            transitions=[arc for arc in arcs if arc[0] in reach],
            variables=fsp.variables,
            extensions=[ext for ext in fsp.extensions if ext[0] in reach],
        )
    assert fsp.describe() == _describe(fsp)


#: Each query that may be the first to need the successor index.
FIRST_QUERIES = {
    "successors": lambda fsp: fsp.successors(fsp.start, "a"),
    "predecessors": lambda fsp: fsp.predecessors(fsp.start, TAU),
    "transitions_from": lambda fsp: fsp.transitions_from(fsp.start),
    "enabled_actions": lambda fsp: fsp.enabled_actions(fsp.start),
    "reachable_states": lambda fsp: fsp.reachable_states(),
    "restrict_to_reachable": lambda fsp: fsp.restrict_to_reachable(),
    "describe": lambda fsp: fsp.describe(),
}


class TestIndexOracle:
    @ORACLE_SETTINGS
    @given(mixed_fsp_strategy(), st.sampled_from(sorted(FIRST_QUERIES)))
    def test_index_queries_match_the_relation(self, fsp, first):
        unqueried = pickle.loads(pickle.dumps(fsp))
        FIRST_QUERIES[first](fsp)
        assert_index_matches_the_relation(fsp)
        assert_index_matches_the_relation(unqueried)
        assert_index_matches_the_relation(pickle.loads(pickle.dumps(fsp)))
