"""Tests for the CCS equivalence problem on star expressions (Section 2.3)."""

from __future__ import annotations

import pytest

from repro.expressions.ccs_equivalence import (
    ccs_equivalent,
    failure_ccs_equivalent,
    language_ccs_equivalent,
    observationally_ccs_equivalent,
)
from repro.expressions.parser import parse
from repro.generators.expressions import random_star_expression


class TestStrongSemantics:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("a + b", "b + a"),
            ("a + a", "a"),
            ("(a + b) + c", "a + (b + c)"),
            ("(a.b).c", "a.(b.c)"),
            ("a*", "a.(a*) + 0*"),
            ("(a + b).c", "a.c + b.c"),
        ],
    )
    def test_identities_that_hold(self, left, right):
        assert ccs_equivalent(left, right)

    @pytest.mark.parametrize(
        "left,right",
        [
            ("a.(b + c)", "a.b + a.c"),
            ("a.0", "0"),
            ("a", "a + b"),
            ("a*", "a.a"),
        ],
    )
    def test_inequivalences(self, left, right):
        assert not ccs_equivalent(left, right)

    def test_accepts_parsed_expressions_and_strings(self):
        assert ccs_equivalent(parse("a + b"), "b + a")
        expression = random_star_expression(16, seed=16)
        assert ccs_equivalent(expression, expression)


class TestOtherSemantics:
    def test_observational_agrees_with_strong_on_observable_representatives(self):
        for left, right in [("a + b", "b + a"), ("a.(b + c)", "a.b + a.c")]:
            assert observationally_ccs_equivalent(left, right) == ccs_equivalent(left, right)

    def test_language_semantics_is_coarser(self):
        assert language_ccs_equivalent("a.(b + c)", "a.b + a.c")
        assert not ccs_equivalent("a.(b + c)", "a.b + a.c")

    def test_failure_semantics_sits_between(self):
        """Failure equivalence also rejects the distributivity instance but is
        coarser than strong equivalence on other examples."""
        assert not failure_ccs_equivalent("a.(b + c)", "a.b + a.c")
        # a.(a + a.a) vs a.a + a.a.a: failure equivalent, not strongly equivalent
        left, right = "a.(a + a.a)", "a.a + a.a.a"
        assert failure_ccs_equivalent(left, right)
        assert not ccs_equivalent(left, right)
        assert language_ccs_equivalent(left, right)

    def test_different_alphabets_are_aligned(self):
        assert not ccs_equivalent("a", "b")
        assert not language_ccs_equivalent("a", "b")
