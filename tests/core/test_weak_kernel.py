"""Tests for the kernel weak-transition engine (tau-SCC + bitset saturation).

The dict-of-frozensets constructions of :mod:`repro.core.derivatives`
(``tau_closure_reference``, ``saturate_reference``) are the oracles here: the
kernel must agree with them arc for arc on random tau-dense processes and on
the structured tau families, every name-level query of
:class:`~repro.core.weak.WeakKernel` must read the same sets off the
reference saturation's arcs, and the full weak pipeline must reproduce the
fixed-point reference partition of Definition 2.2.2.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.derivatives import saturate, saturate_reference, tau_closure_reference
from repro.core.errors import InvalidProcessError
from repro.core.fsp import EPSILON, TAU, from_transitions
from repro.core.lts import LTS
from repro.core.weak import WeakKernel, bits_to_indices, saturate_lts, tau_scc
from repro.equivalence.kobs import limited_observational_partition
from repro.equivalence.observational import observational_partition
from repro.generators.families import tau_diamond_tower, tau_ladder, tau_mesh
from repro.generators.random_fsp import random_fsp
from repro.partition.generalized import GeneralizedPartitioningInstance, Solver, solve


def tau_dense(seed: int, num_states: int = 10):
    return random_fsp(
        num_states=num_states,
        tau_probability=0.4,
        transition_density=2.0,
        seed=seed,
    )


class TestTauScc:
    def test_tau_cycle_is_one_component(self):
        process = from_transitions(
            [("p", TAU, "q"), ("q", TAU, "r"), ("r", TAU, "p"), ("p", "a", "s")],
            start="p",
            all_accepting=True,
        )
        lts = LTS.from_fsp(process, include_tau=True)
        scc_of, sccs = tau_scc(lts)
        cycle = {lts.state_names.index(name) for name in ("p", "q", "r")}
        assert len({scc_of[i] for i in cycle}) == 1
        assert len(sccs) == 2  # the cycle plus the singleton "s"

    def test_component_numbering_is_reverse_topological(self):
        """Every tau-arc between distinct components goes to a smaller id."""
        for seed in range(6):
            process = tau_dense(seed, num_states=14)
            lts = LTS.from_fsp(process, include_tau=True)
            scc_of, _ = tau_scc(lts)
            tau_name = TAU
            for src, act, dst in process.transitions:
                if act != tau_name:
                    continue
                a = scc_of[lts.state_names.index(src)]
                b = scc_of[lts.state_names.index(dst)]
                assert a == b or a > b

    def test_deep_tau_chain_does_not_recurse(self):
        """The iterative Tarjan survives chains far beyond the recursion limit."""
        deep = tau_ladder(3000)
        lts = LTS.from_fsp(deep, include_tau=True)
        scc_of, sccs = tau_scc(lts)
        assert len(scc_of) == lts.n
        assert sum(len(members) for members in sccs) == lts.n


class TestClosureAgainstReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_bitset_closure_matches_bfs_reference(self, seed):
        process = tau_dense(seed)
        lts = LTS.from_fsp(process, include_tau=True)
        kernel = WeakKernel(lts)
        names = lts.state_names
        from_bits = {
            names[i]: frozenset(names[j] for j in bits_to_indices(kernel.closure_bits(i)))
            for i in range(lts.n)
        }
        assert from_bits == tau_closure_reference(process)

    @pytest.mark.parametrize("seed", range(10))
    def test_public_tau_closure_matches_reference(self, seed):
        process = tau_dense(seed)
        assert WeakKernel.from_fsp(process).closure_dict() == tau_closure_reference(process)

    def test_closure_is_reflexive_on_tau_free_processes(self):
        process = from_transitions([("p", "a", "q")], start="p", all_accepting=True)
        closure = WeakKernel.from_fsp(process).closure_dict()
        assert closure == {"p": frozenset({"p"}), "q": frozenset({"q"})}


class TestSaturationAgainstReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_saturation_equals_reference_fsp(self, seed):
        process = tau_dense(seed)
        assert saturate(process) == saturate_reference(process)

    @pytest.mark.parametrize(
        "family", [lambda: tau_ladder(15), lambda: tau_mesh(36), lambda: tau_diamond_tower(6)]
    )
    def test_kernel_saturation_on_structured_families(self, family):
        process = family()
        lts = LTS.from_fsp(process, include_tau=True)
        assert saturate_lts(lts).to_fsp() == saturate_reference(process)

    def test_custom_epsilon_marker(self):
        process = tau_ladder(4)
        assert saturate(process, "eps") == saturate_reference(process, "eps")

    def test_epsilon_collision_raises(self):
        process = from_transitions([("p", "e", "q")], start="p", all_accepting=True)
        with pytest.raises(InvalidProcessError):
            saturate(process, "e")
        with pytest.raises(InvalidProcessError):
            saturate_lts(LTS.from_fsp(process, include_tau=True), "e")
        with pytest.raises(InvalidProcessError):
            saturate_lts(LTS.from_fsp(process, include_tau=True), TAU)

    def test_action_outside_observable_alphabet_raises(self):
        """A kernel whose observable_alphabet omits an arc-carrying action is rejected."""
        lts = LTS(
            state_names=["p", "q"],
            action_names=["a", "b"],
            edges=[(0, 0, 1), (0, 1, 1)],
            observable_alphabet=("a",),
        )
        with pytest.raises(InvalidProcessError):
            saturate_lts(lts)

    def test_from_csr_rejects_mismatched_arc_arrays(self):
        from array import array

        from repro.core.lts import INDEX_TYPECODE

        with pytest.raises(InvalidProcessError):
            LTS.from_csr(
                ["p", "q"],
                ["a"],
                array(INDEX_TYPECODE, [0, 2, 2]),
                array(INDEX_TYPECODE, [0]),  # one action for two targets
                array(INDEX_TYPECODE, [0, 1]),
            )

    def test_arc_free_action_outside_observable_alphabet_is_tolerated(self):
        """An unused label outside the observable alphabet has nothing to saturate."""
        lts = LTS(
            state_names=["p", "q"],
            action_names=["a", "b"],
            edges=[(0, 0, 1)],
            observable_alphabet=("a",),
        )
        saturated = saturate_lts(lts)
        assert "b" not in saturated.action_names

    def test_saturated_kernel_round_trips_through_csr(self):
        """from_csr adoption preserves the reverse index and determinism scan."""
        process = tau_mesh(25)
        saturated = saturate_lts(LTS.from_fsp(process, include_tau=True))
        rebuilt = LTS.from_fsp(saturated.to_fsp(), include_tau=True)
        assert list(saturated.fwd_offsets) == list(rebuilt.fwd_offsets)
        assert list(saturated.fwd_actions) == list(rebuilt.fwd_actions)
        assert list(saturated.fwd_targets) == list(rebuilt.fwd_targets)
        assert saturated.is_deterministic() == rebuilt.is_deterministic()


class TestWeakKernelQueries:
    @pytest.mark.parametrize("seed", range(6))
    def test_weak_successors_match_dict_path(self, seed):
        process = tau_dense(seed)
        kernel = WeakKernel.from_fsp(process)
        saturated = saturate_reference(process)
        for state in process.states:
            assert kernel.epsilon_closure(state) == saturated.successors(state, EPSILON)
            for action in process.alphabet:
                assert kernel.weak_successors(state, action) == saturated.successors(state, action)

    def test_weak_bits_rejects_tau(self):
        kernel = WeakKernel.from_fsp(tau_ladder(3))
        with pytest.raises(InvalidProcessError):
            kernel.weak_successors("u0", TAU)

    def test_unknown_state_raises(self):
        kernel = WeakKernel.from_fsp(tau_ladder(3))
        with pytest.raises(InvalidProcessError):
            kernel.weak_successors("nope", "a")


#: The reference saturation's epsilon label.  The saturated input already
#: carries EPSILON as an ordinary letter, so the oracle labels its own
#: ``=>^epsilon`` arcs apart.
MARKER = "eps"


class TestNameQueriesAgainstSaturateReference:
    """Every name-level kernel query, read instead off ``saturate_reference``'s arcs.

    The inputs are the tau-dense seeds plus one process saturated with
    ``saturate``, whose alphabet holds EPSILON as a letter.  The reference
    labels ``=>^epsilon`` with :data:`MARKER`; the kernel reads EPSILON as
    ``=>^epsilon`` and never reports it as a weak initial.
    """

    @pytest.fixture(params=[*range(6), "saturated"])
    def case(self, request):
        which = request.param
        process = saturate(tau_dense(0)) if which == "saturated" else tau_dense(which)
        observable = sorted(process.alphabet - {EPSILON})
        oracle = saturate_reference(process, MARKER)
        return process, observable, WeakKernel.from_fsp(process), oracle

    def test_weak_initials_are_the_labels_of_observable_arcs(self, case):
        process, _, kernel, oracle = case
        for state in process.states:
            expected = oracle.enabled_actions(state) - {MARKER, EPSILON}
            assert kernel.weak_initials(state) == expected, state

    def test_weak_successors_of_a_set_are_the_union_of_its_arcs(self, case):
        process, observable, kernel, oracle = case
        states = sorted(process.states)
        subsets = [frozenset(), frozenset(states)]
        subsets += [frozenset(pair) for pair in itertools.combinations(states, 2)]
        for action in [*observable, EPSILON]:
            label = MARKER if action == EPSILON else action
            for subset in subsets:
                expected = frozenset().union(*(oracle.successors(s, label) for s in subset))
                assert kernel.weak_successors_of_set(subset, action) == expected, (subset, action)

    def test_string_derivatives_step_the_arcs_from_the_closure(self, case):
        process, observable, kernel, oracle = case
        words = [w for length in range(4) for w in itertools.product(observable, repeat=length)]
        for state in process.states:
            for word in words:
                expected = oracle.successors(state, MARKER)
                for action in word:
                    expected = frozenset().union(*(oracle.successors(s, action) for s in expected))
                assert kernel.string_derivatives(state, word) == expected, (state, word)


class TestWeakPipelinePartition:
    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_route_matches_fixed_point_reference(self, seed):
        process = tau_dense(seed, num_states=9)
        assert observational_partition(process) == limited_observational_partition(process)

    @pytest.mark.parametrize(
        "family", [lambda: tau_ladder(10), lambda: tau_mesh(25), lambda: tau_diamond_tower(4)]
    )
    def test_kernel_route_on_structured_families(self, family):
        process = family()
        assert observational_partition(process) == limited_observational_partition(process)

    @pytest.mark.parametrize("seed", range(4))
    def test_lts_to_saturated_to_partition_round_trip(self, seed):
        """FSP -> LTS -> saturated LTS -> instance -> partition, every solver."""
        process = tau_dense(seed, num_states=8)
        saturated = saturate_lts(LTS.from_fsp(process, include_tau=True))
        instance = GeneralizedPartitioningInstance.from_lts(saturated)
        reference = limited_observational_partition(process)
        for method in (Solver.NAIVE, Solver.KANELLAKIS_SMOLKA, Solver.PAIGE_TARJAN):
            assert solve(instance, method=method) == reference


class TestWeakInitialsRegression:
    def test_weak_initials_skip_the_epsilon_marker(self):
        """Regression: on a saturated process EPSILON is not a weak initial.

        ``weak_initials`` used to loop over the full alphabet; on saturated
        processes (whose alphabet contains the EPSILON marker) it reported
        EPSILON as enabled at every state because ``=>^epsilon`` is reflexive.
        """
        process = tau_ladder(3)
        saturated = saturate(process)
        assert EPSILON in saturated.alphabet
        kernel = WeakKernel.from_fsp(saturated)
        for state in saturated.states:
            assert EPSILON not in kernel.weak_initials(state)

    def test_weak_initials_still_report_observable_actions(self):
        kernel = WeakKernel.from_fsp(tau_ladder(3))
        assert kernel.weak_initials("u0") == frozenset({"a"})

    def test_weak_language_view_rejects_saturated_processes(self):
        """The EPSILON marker in an alphabet means mixed semantics -- refuse it.

        Mirrors the pre-kernel behaviour where the ``approx_k`` route raised
        via ``saturate``'s collision check when handed an already-saturated
        process.
        """
        from repro.equivalence.language import weak_language_nfa

        saturated = saturate(tau_ladder(3))
        with pytest.raises(InvalidProcessError):
            weak_language_nfa(saturated)

    def test_weak_successors_raise_cleanly_on_tau(self):
        kernel = WeakKernel.from_fsp(tau_ladder(3))
        with pytest.raises(InvalidProcessError):
            kernel.weak_successors_of_set({"u0"}, TAU)
        with pytest.raises(InvalidProcessError):
            kernel.string_derivatives("u0", [TAU])
