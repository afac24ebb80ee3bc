"""Tests for the integer-indexed LTS kernel and its FSP bridges."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP, TAU, from_transitions
from repro.core.lts import LTS, disjoint_union
from repro.generators.random_fsp import (
    random_deterministic_fsp,
    random_fsp,
    random_observable_fsp,
)
from tests.property.strategies import mixed_fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_fsp_round_trips_exactly(self, seed):
        process = random_fsp(12, tau_probability=0.3, seed=seed)
        assert LTS.from_fsp(process, include_tau=True).to_fsp() == process

    @pytest.mark.parametrize("seed", range(5))
    def test_observable_fsp_round_trips_without_tau_flag(self, seed):
        process = random_observable_fsp(10, seed=seed)
        assert LTS.from_fsp(process, include_tau=False).to_fsp() == process

    def test_round_trip_keeps_start_and_extensions(self, branching_process):
        back = LTS.from_fsp(branching_process).to_fsp()
        assert back.start == branching_process.start
        assert back.extensions == branching_process.extensions
        assert back.alphabet == branching_process.alphabet

    def test_include_tau_false_drops_tau_arcs(self, tau_process):
        lts = LTS.from_fsp(tau_process, include_tau=False)
        assert TAU not in lts.action_names
        assert lts.num_transitions == sum(1 for _, act, _ in tau_process.transitions if act != TAU)

    def test_empty_lts_has_no_fsp(self):
        lts = LTS([], [], [])
        assert lts.n == 0
        with pytest.raises(InvalidProcessError):
            lts.to_fsp()


class TestStructure:
    def test_interning_is_canonical(self, branching_process):
        lts = LTS.from_fsp(branching_process)
        assert list(lts.state_names) == sorted(branching_process.states)
        assert list(lts.action_names) == sorted(branching_process.alphabet)

    def test_csr_matches_transitions(self, branching_process):
        lts = LTS.from_fsp(branching_process)
        arcs = {
            (lts.state_names[s], lts.action_names[a], lts.state_names[d])
            for s, a, d in lts.arcs()
        }
        assert arcs == set(branching_process.transitions)

    @pytest.mark.parametrize("seed", range(8))
    def test_reverse_index_mirrors_forward(self, seed):
        lts = LTS.from_fsp(random_fsp(10, tau_probability=0.2, seed=seed))
        rev_offsets, rev_actions, rev_sources = lts.reverse_index()
        backward = set()
        for target in range(lts.n):
            for i in range(rev_offsets[target], rev_offsets[target + 1]):
                backward.add((rev_sources[i], rev_actions[i], target))
        assert backward == set(lts.arcs())

    @pytest.mark.parametrize("seed", range(8))
    def test_reverse_lists_mirror_forward(self, seed):
        lts = LTS.from_fsp(random_fsp(10, tau_probability=0.2, seed=seed))
        slots = lts.reverse_lists()
        backward = {
            (source, slot // lts.n, slot % lts.n)
            for slot, sources in enumerate(slots)
            for source in sources
        }
        assert backward == set(lts.arcs())

    def test_duplicate_edges_are_removed(self):
        lts = LTS(["p", "q"], ["a"], [(0, 0, 1), (0, 0, 1), (1, 0, 0)])
        assert lts.num_transitions == 2

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(InvalidProcessError):
            LTS(["p"], ["a"], [(3, 0, 0)])
        with pytest.raises(InvalidProcessError):
            LTS(["p"], ["a"], [(0, 0, 5)])
        with pytest.raises(InvalidProcessError):
            LTS(["p"], ["a"], [(0, 3, 0)])

    def test_determinism_detection(self):
        deterministic = LTS.from_fsp(random_deterministic_fsp(9, seed=3))
        assert deterministic.is_deterministic()
        assert deterministic.max_fanout() <= 1
        branching = LTS.from_fsp(
            from_transitions(
                [("s", "a", "p"), ("s", "a", "q")], start="s", all_accepting=True
            )
        )
        assert not branching.is_deterministic()
        assert branching.max_fanout() == 2

    def test_extension_block_ids_group_by_extension(self, branching_process):
        lts = LTS.from_fsp(branching_process)
        block_of, num_blocks = lts.extension_block_ids()
        assert num_blocks == 2  # accepting leaf vs everything else
        by_name = dict(zip(lts.state_names, block_of))
        assert by_name["s"] == by_name["l"] == by_name["r"]
        assert by_name["t"] != by_name["s"]


class TestDisjointUnion:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_interned_fsp_union(self, seed):
        left = random_fsp(7, alphabet=("a", "b"), tau_probability=0.3, seed=seed)
        right = random_fsp(5, alphabet=("b", "c"), tau_probability=0.3 * (seed % 2), seed=seed + 50)
        union = disjoint_union(LTS.from_fsp(left), LTS.from_fsp(right))
        expected = LTS.from_fsp(left.disjoint_union(right))
        assert union.state_names == expected.state_names
        assert union.action_names == expected.action_names
        assert union.fwd_offsets == expected.fwd_offsets
        assert union.fwd_actions == expected.fwd_actions
        assert union.fwd_targets == expected.fwd_targets
        assert union.to_fsp() == left.disjoint_union(right)

    def test_rejects_an_action_table_out_of_interning_order(self):
        kernel = LTS(["p", "q"], ["b", "a"], [(0, 0, 1)])
        with pytest.raises(InvalidProcessError, match="not sorted"):
            disjoint_union(kernel, kernel)


# ----------------------------------------------------------------------
# the intern against the edge-triple constructor
# ----------------------------------------------------------------------
def interned_by_definition(fsp: FSP, include_tau: bool) -> tuple[LTS, list[tuple[int, int, int]]]:
    """The edge-triple kernel of ``fsp`` and its integer edges, from the public fields."""
    names = sorted(fsp.states)
    arcs = [arc for arc in fsp.transitions if include_tau or arc[1] != TAU]
    actions = sorted(fsp.alphabet) + ([TAU] if any(arc[1] == TAU for arc in arcs) else [])
    state = {name: i for i, name in enumerate(names)}
    action = {name: i for i, name in enumerate(actions)}
    edges = [(state[src], action[act], state[dst]) for src, act, dst in arcs]
    kernel = LTS(
        names,
        actions,
        edges,
        start=state[fsp.start],
        ext_sets=[{var for owner, var in fsp.extensions if owner == name} for name in names],
        variables=tuple(sorted(fsp.variables)),
        observable_alphabet=tuple(sorted(fsp.alphabet)),
    )
    return kernel, edges


def assert_interned_like_the_edge_constructor(fsp: FSP, include_tau: bool) -> None:
    lts = LTS.from_fsp(fsp, include_tau=include_tau)
    expected, edges = interned_by_definition(fsp, include_tau)
    for column in ("fwd_offsets", "fwd_actions", "fwd_targets"):
        got, want = getattr(lts, column), getattr(expected, column)
        assert (got.typecode, got.tobytes()) == (want.typecode, want.tobytes()), column
    for field in ("n", "num_actions", "state_names", "action_names", "start", "ext_sets"):
        assert getattr(lts, field) == getattr(expected, field), field
    assert lts.variables == expected.variables
    assert lts.observable_alphabet == expected.observable_alphabet
    # The CSR layout itself, independent of both constructors.
    assert list(lts.arcs()) == sorted(edges)
    assert list(lts.fwd_offsets) == [
        sum(1 for src, _, _ in edges if src < s) for s in range(len(fsp.states) + 1)
    ]


class TestInternOracle:
    @ORACLE_SETTINGS
    @given(mixed_fsp_strategy(), st.booleans())
    def test_from_fsp_equals_the_edge_constructor(self, fsp, include_tau):
        assert_interned_like_the_edge_constructor(fsp, include_tau)

    @ORACLE_SETTINGS
    @given(mixed_fsp_strategy(allow_tau=False), st.booleans())
    def test_tau_free_processes_intern_without_tau(self, fsp, include_tau):
        assert TAU not in LTS.from_fsp(fsp, include_tau=include_tau).action_names
        assert_interned_like_the_edge_constructor(fsp, include_tau)

    @pytest.mark.parametrize("include_tau", (True, False))
    def test_states_without_extensions_and_non_standard_variables(self, include_tau):
        process = FSP(
            states=["p", "q", "r"],
            start="q",
            alphabet=("a", "b"),
            transitions=[("q", TAU, "p"), ("q", "a", "r"), ("p", TAU, "q")],
            variables=("y", "z"),
            extensions=[("r", "z"), ("r", "y")],
        )
        assert_interned_like_the_edge_constructor(process, include_tau)
        lts = LTS.from_fsp(process, include_tau=include_tau)
        assert lts.ext_sets == (frozenset(), frozenset(), frozenset({"y", "z"}))
        assert lts.action_names == (("a", "b", TAU) if include_tau else ("a", "b"))
