"""Tests for Hennessy-Milner logic and distinguishing formulas."""

from __future__ import annotations

import inspect
import json
import sys

import pytest

from repro.core.fsp import TAU, from_transitions
from repro.core.paper_figures import fig2_language_pair
from repro.engine import Engine
from repro.equivalence.hml import (
    And,
    Diamond,
    ExtensionIs,
    Not,
    Tt,
    WeakDiamond,
    distinguishing_formula,
    modal_depth,
    satisfies,
)
from repro.equivalence.observational import observationally_equivalent_processes
from repro.equivalence.strong import strongly_equivalent
from repro.generators.families import chain, comb, with_snag


class TestSatisfaction:
    def test_tt_everywhere(self, branching_process):
        for state in branching_process.states:
            assert satisfies(branching_process, state, Tt())

    def test_extension_atom(self, branching_process):
        accepting = ExtensionIs(frozenset({"x"}))
        assert satisfies(branching_process, "t", accepting)
        assert not satisfies(branching_process, "s", accepting)

    def test_diamond(self, branching_process):
        can_do_b = Diamond("b", Tt())
        assert satisfies(branching_process, "l", can_do_b)
        assert not satisfies(branching_process, "r", can_do_b)

    def test_nested_diamond(self, branching_process):
        formula = Diamond("a", Diamond("b", ExtensionIs(frozenset({"x"}))))
        assert satisfies(branching_process, "s", formula)

    def test_negation_and_conjunction(self, branching_process):
        formula = And((Diamond("a", Tt()), Not(Diamond("b", Tt()))))
        assert satisfies(branching_process, "s", formula)
        assert not satisfies(branching_process, "l", formula)

    def test_weak_diamond_sees_through_tau(self, tau_process):
        weak_a = WeakDiamond("a", Tt())
        strong_a = Diamond("a", Tt())
        # s can do `a` directly; after the tau it still weakly can.
        assert satisfies(tau_process, "s", weak_a)
        assert satisfies(tau_process, "m", weak_a)
        assert not satisfies(tau_process, "t", weak_a)
        assert satisfies(tau_process, "s", strong_a)

    def test_weak_epsilon_diamond(self, tau_process):
        reaches_accepting = WeakDiamond("", ExtensionIs(frozenset({"x"})))
        assert satisfies(tau_process, "t", reaches_accepting)
        assert not satisfies(tau_process, "s", reaches_accepting)

    def test_modal_depth(self):
        formula = Diamond("a", And((Diamond("b", Tt()), ExtensionIs(frozenset()))))
        assert modal_depth(formula) == 2
        assert modal_depth(Tt()) == 0
        assert modal_depth(Not(Diamond("a", Tt()))) == 1

    def test_str_renderings(self):
        formula = Not(Diamond("a", And((Tt(), WeakDiamond("b", Tt())))))
        text = str(formula)
        assert "<a>" in text and "<<b>>" in text and "¬" in text


class TestDistinguishingFormulas:
    def test_none_for_equivalent_states(self):
        process = from_transitions(
            [("p", "a", "x"), ("q", "a", "y")], start="p", all_accepting=True
        )
        assert distinguishing_formula(process, "p", "q") is None

    def test_formula_separates_strongly_inequivalent_states(self, branching_process):
        formula = distinguishing_formula(branching_process, "l", "r")
        assert formula is not None
        assert satisfies(branching_process, "l", formula)
        assert not satisfies(branching_process, "r", formula)

    def test_extension_level_difference(self, branching_process):
        formula = distinguishing_formula(branching_process, "s", "t")
        assert isinstance(formula, ExtensionIs)
        assert satisfies(branching_process, "s", formula)
        assert not satisfies(branching_process, "t", formula)

    def test_weak_formula_for_fig2_pair(self):
        first, second = fig2_language_pair()
        combined = first.disjoint_union(second)
        assert not observationally_equivalent_processes(first, second)
        formula = distinguishing_formula(combined, "L:p0", "R:q0", weak=True)
        # weak equivalence fails, so a weak distinguishing formula must exist ...
        if formula is None:
            formula = distinguishing_formula(combined, "R:q0", "L:p0", weak=True)
        assert formula is not None
        sat_left = satisfies(combined, "L:p0", formula)
        sat_right = satisfies(combined, "R:q0", formula)
        assert sat_left != sat_right

    def test_strong_formula_respects_tau_as_label(self, tau_process):
        # s and t differ already in extensions
        formula = distinguishing_formula(tau_process, "s", "t")
        assert formula is not None
        assert satisfies(tau_process, "s", formula) != satisfies(tau_process, "t", formula)

    def test_formula_depth_matches_separation_level(self):
        first, second = fig2_language_pair()
        combined = first.disjoint_union(second)
        formula = distinguishing_formula(combined, "R:q0", "L:p0", weak=True)
        assert formula is not None
        assert modal_depth(formula) <= 2

    def test_strong_distinguishing_on_equivalent_weak_pair(self):
        """tau.a.0 vs a.0: strongly different, weakly equivalent."""
        process = from_transitions(
            [("p", TAU, "pm"), ("pm", "a", "p1"), ("q", "a", "q1")],
            start="p",
            all_accepting=True,
        )
        assert not strongly_equivalent(process, "p", "q")
        strong_formula = distinguishing_formula(process, "p", "q", weak=False)
        assert strong_formula is not None
        assert satisfies(process, "p", strong_formula) != satisfies(process, "q", strong_formula)
        assert distinguishing_formula(process, "p", "q", weak=True) is None


class TestDeepWitnesses:
    """A distinguishing formula nests one modality per separation level.

    Snagging the far end of a 200-step chain or comb separates the start
    states only at depth ~200, so every consumer of the witness -- rendering,
    ``repr``, serialisation and the satisfaction check -- must walk formulas
    far deeper than the interpreter's recursion limit allows for nested
    calls.
    """

    @staticmethod
    def _aligned(left, right):
        alphabet = left.alphabet | right.alphabet
        return left.with_alphabet(alphabet), right.with_alphabet(alphabet)

    @pytest.mark.parametrize(
        ("left", "right", "notion"),
        [
            (comb(200), with_snag(comb(200), "tooth199"), "strong"),
            (chain(200), with_snag(chain(200), "s200"), "observational"),
        ],
        ids=["comb-strong", "chain-observational"],
    )
    def test_deep_witness_renders_serialises_and_verifies(self, left, right, notion):
        verdict = Engine().check(*self._aligned(left, right), notion)
        assert not verdict.equivalent
        assert modal_depth(verdict.witness.formula) > 150
        assert "formula satisfied by left only" in verdict.witness.describe()
        assert repr(verdict.witness).startswith("FormulaWitness(formula=")
        document = json.loads(json.dumps(verdict.to_dict()))
        assert document["witness"] == verdict.witness.describe()
        assert verdict.verify_witness() is True

    def test_construction_does_not_recurse_per_level(self):
        left, right = self._aligned(chain(120), with_snag(chain(120), "s120"))
        combined = left.disjoint_union(right)
        limit = sys.getrecursionlimit()
        # Far fewer frames than levels: a per-level recursion cannot fit.
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            formula = distinguishing_formula(combined, "R:s0", "L:s0")
        finally:
            sys.setrecursionlimit(limit)
        assert modal_depth(formula) == 121
        assert satisfies(combined, "R:s0", formula)
        assert not satisfies(combined, "L:s0", formula)

    def test_rendering_matches_the_formula_structure(self):
        formula = Not(WeakDiamond("", And((Tt(), ExtensionIs(frozenset({"x"}))))))
        assert str(formula) == "¬(<<ε>>((tt ∧ ext({x}))))"
        assert repr(formula) == (
            "Not(operand=WeakDiamond(action='', operand=And(operands=(Tt(), "
            "ExtensionIs(extension=frozenset({'x'}))))))"
        )
        assert str(And(())) == "tt"
        assert repr(And((Tt(),))) == "And(operands=(Tt(),))"
        assert repr(Diamond("a", Tt())) == "Diamond(action='a', operand=Tt())"
