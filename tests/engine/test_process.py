"""Tests for the :class:`repro.engine.Process` handle and its artifact caches."""

from __future__ import annotations

import pytest

from repro.core.fsp import from_transitions
from repro.core.paper_figures import fig2_language_pair
from repro.engine import Process
from repro.equivalence.minimize import minimize_observational, minimize_strong
from repro.equivalence.observational import observational_partition
from repro.equivalence.strong import strong_bisimulation_partition
from repro.partition.branching import branching_quotient
from repro.partition.generalized import Solver
from repro.utils import serialization


@pytest.fixture
def bloated():
    return from_transitions(
        [("p", "a", "x"), ("p", "a", "y"), ("x", "b", "z"), ("y", "b", "z")],
        start="p",
        all_accepting=True,
    )


class TestArtifactCaching:
    def test_artifacts_are_computed_once(self, bloated):
        handle = Process(bloated)
        assert handle.lts() is handle.lts()
        assert handle.weak_kernel() is handle.weak_kernel()
        assert handle.saturated_lts() is handle.saturated_lts()
        assert handle.strong_partition() is handle.strong_partition()
        assert handle.observational_partition() is handle.observational_partition()
        assert handle.minimized_strong() is handle.minimized_strong()
        assert handle.minimized_observational() is handle.minimized_observational()
        assert handle.language_dfa() is handle.language_dfa()

    def test_artifact_summary_tracks_materialisation(self, bloated):
        handle = Process(bloated)
        summary = handle.artifact_summary()
        assert summary["lts"] is False
        assert summary["strong_partitions"] == 0
        handle.minimized_strong()
        summary = handle.artifact_summary()
        assert summary["lts"] is True
        assert summary["strong_partitions"] == 1
        assert summary["minimized_strong"] == 1

    def test_one_slot_per_notion_whatever_the_hints(self, bloated):
        # The coarsest stable refinement is unique, so solver and backend
        # only decide how a missing artifact is computed.
        handle = Process(bloated)
        by_pt = handle.strong_partition(Solver.PAIGE_TARJAN)
        assert handle.strong_partition("kanellakis-smolka", "vector") is by_pt
        assert handle.artifact_summary()["strong_partitions"] == 1
        assert handle.saturated_lts("python") is handle.saturated_lts("vector")

    def test_branching_prequotient_computed_once_per_handle(self, bloated, monkeypatch):
        calls = []

        def counting(lts):
            calls.append(lts)
            return branching_quotient(lts)

        monkeypatch.setattr("repro.engine.process.branching_quotient", counting)
        handle = Process(bloated)
        assert handle.artifact_summary()["branching_quotient"] is False
        by_pt = handle.observational_partition(Solver.PAIGE_TARJAN)
        by_ks = handle.observational_partition("kanellakis-smolka")
        handle.minimized_observational(backend="auto")
        assert by_pt == by_ks
        assert len(calls) == 1
        assert handle.artifact_summary()["branching_quotient"] is True
        assert handle.artifact_summary()["saturated_lts"] is False

    def test_solver_accepted_as_string(self, bloated):
        handle = Process(bloated)
        assert handle.strong_partition("paige-tarjan") is handle.strong_partition(
            Solver.PAIGE_TARJAN
        )


class TestAgainstReferenceRoutes:
    def test_partitions_match_free_functions(self, bloated):
        handle = Process(bloated)
        assert (
            handle.strong_partition().as_frozen()
            == strong_bisimulation_partition(bloated).as_frozen()
        )
        assert (
            handle.observational_partition().as_frozen()
            == observational_partition(bloated).as_frozen()
        )

    def test_quotients_match_free_functions(self, bloated):
        handle = Process(bloated)
        assert handle.minimized_strong() == minimize_strong(bloated)
        assert handle.minimized_observational() == minimize_observational(bloated)

    def test_language_dfa_accepts_the_language(self):
        first, _ = fig2_language_pair()
        dfa = Process(first).language_dfa()
        assert dfa.accepts(())
        assert dfa.accepts(("a", "a"))
        assert not dfa.accepts(("a", "a", "a"))


class TestConstructors:
    def test_from_file(self, tmp_path):
        first, _ = fig2_language_pair()
        path = tmp_path / "p.json"
        serialization.dump(first, path)
        assert Process.from_file(path).fsp == first

    def test_from_expression(self):
        handle = Process.from_expression("a.b")
        assert handle.fsp.alphabet == {"a", "b"}
        assert handle.language_dfa().accepts(("a", "b"))

    def test_from_ccs(self):
        handle = Process.from_ccs("a.0")
        assert handle.fsp.num_states == 2

    def test_rejects_non_fsp(self):
        with pytest.raises(TypeError):
            Process("not a process")
