"""Tests for the representative-FSP construction (Definition 2.3.1, Lemma 2.3.1)."""

from __future__ import annotations

import pytest

from repro.core.classify import ModelClass, classify
from repro.equivalence.language import accepted_strings_upto
from repro.equivalence.strong import strongly_equivalent_processes
from repro.expressions.parser import parse
from repro.expressions.regular import language_upto
from repro.expressions.semantics import construction_size, representative_fsp
from repro.expressions.syntax import length_of
from repro.generators.expressions import (
    alternating_expression,
    random_star_expression,
    starred_unions,
)


class TestBaseCases:
    def test_empty_expression(self):
        process = representative_fsp(parse("0"))
        assert process.num_states == 1
        assert process.num_transitions == 0
        assert not process.is_accepting(process.start)

    def test_single_action(self):
        process = representative_fsp(parse("a"))
        assert process.num_states == 2
        assert process.num_transitions == 1
        assert not process.is_accepting(process.start)
        (target,) = process.successors(process.start, "a")
        assert process.is_accepting(target)


class TestStructuralProperties:
    @pytest.mark.parametrize(
        "text",
        ["0", "a", "a + b", "a.b", "a*", "a.(b + c)*", "(a + b)*.(c.a + 0)", "a**"],
    )
    def test_representative_is_standard_and_observable(self, text):
        """Lemma 2.3.1: the representative FSP is observable and standard."""
        process = representative_fsp(parse(text))
        classes = classify(process)
        assert ModelClass.STANDARD_OBSERVABLE in classes

    @pytest.mark.parametrize("size", [3, 6, 10, 15])
    def test_size_bounds_of_lemma_231(self, size):
        """O(n) states and O(n^2) transitions in the expression length n."""
        for expression in (
            random_star_expression(size, seed=size),
            alternating_expression(size),
            starred_unions(size),
        ):
            n = length_of(expression)
            states, transitions = construction_size(expression)
            assert states <= 2 * n + 1
            assert transitions <= 4 * n * n

    def test_union_start_copies_both_sides(self):
        process = representative_fsp(parse("a + b"))
        assert process.enabled_actions(process.start) == frozenset({"a", "b"})

    def test_star_start_is_accepting(self):
        process = representative_fsp(parse("a*"))
        assert process.is_accepting(process.start)

    def test_prune_unreachable_option(self):
        literal = representative_fsp(parse("a + b"))
        pruned = representative_fsp(parse("a + b"), prune_unreachable=True)
        assert pruned.num_states <= literal.num_states
        assert strongly_equivalent_processes(literal, pruned)

    def test_explicit_alphabet(self):
        process = representative_fsp(parse("a"), alphabet={"a", "b"})
        assert process.alphabet == frozenset({"a", "b"})


class TestLanguagePreservation:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "a",
            "a + b",
            "a.b",
            "a*",
            "a.b*",
            "a.(b + c)",
            "(a.b)*",
            "a.0",
            "0*",
            "(a + b)*.c",
            "a*.b*",
            "(a + b.a)*",
        ],
    )
    def test_representative_accepts_the_denoted_language(self, text):
        """Cross-check Definition 2.3.1 against the Thompson (classical) semantics."""
        expression = parse(text)
        process = representative_fsp(expression)
        assert accepted_strings_upto(process, 4) == language_upto(expression, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_expressions_preserve_language(self, seed):
        expression = random_star_expression(6, seed=seed)
        process = representative_fsp(expression)
        assert accepted_strings_upto(process, 4) == language_upto(expression, 4)
