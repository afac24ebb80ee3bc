"""Tests for the Lemma 4.2 reduction (universality -> restricted observable approx_1)."""

from __future__ import annotations

import pytest

from repro.core.classify import ModelClass, classify
from repro.core.errors import ModelClassError
from repro.core.fsp import TAU, from_transitions
from repro.equivalence.language import accepted_strings_upto, is_universal
from repro.generators.random_fsp import random_fsp
from repro.reductions.lemma42 import (
    decide_universality_via_lemma42,
    lemma42_transform,
    normalize_for_lemma42,
)


def _universal_two_action():
    return from_transitions([("u", "a", "u"), ("u", "b", "u")], start="u", accepting=["u"])


def _missing_word_process():
    """Accepts everything except words containing two consecutive b's."""
    return from_transitions(
        [
            ("s", "a", "s"),
            ("s", "b", "t"),
            ("t", "a", "s"),
        ],
        start="s",
        accepting=["s", "t"],
        alphabet={"a", "b"},
    )


class TestNormalisation:
    def test_normalised_process_is_total_and_observable(self):
        original = from_transitions(
            [("p", "a", "q"), ("q", TAU, "r"), ("r", "b", "p")],
            start="p",
            accepting=["r"],
            alphabet={"a", "b"},
        )
        normalized = normalize_for_lemma42(original)
        assert not normalized.has_tau()
        for state in normalized.states:
            assert normalized.enabled_actions(state) == frozenset({"a", "b"})

    def test_normalisation_preserves_language(self):
        original = from_transitions(
            [("p", "a", "q"), ("q", TAU, "r"), ("r", "b", "p")],
            start="p",
            accepting=["r"],
            alphabet={"a", "b"},
        )
        normalized = normalize_for_lemma42(original)
        assert accepted_strings_upto(original, 4) == accepted_strings_upto(normalized, 4)

    def test_requires_two_action_alphabet(self):
        unary = from_transitions([("p", "a", "p")], start="p", accepting=["p"])
        with pytest.raises(ModelClassError):
            normalize_for_lemma42(unary)

    @pytest.mark.parametrize("seed", range(5))
    def test_normalisation_preserves_language_on_random_processes(self, seed):
        original = random_fsp(
            6, alphabet=("a", "b"), tau_probability=0.2, accepting_probability=0.4, seed=seed
        )
        normalized = normalize_for_lemma42(original)
        assert accepted_strings_upto(original, 4) == accepted_strings_upto(normalized, 4)


class TestTransformation:
    def test_result_is_restricted_observable(self):
        normalized = normalize_for_lemma42(_universal_two_action())
        transformed = lemma42_transform(normalized)
        assert ModelClass.RESTRICTED_OBSERVABLE in classify(transformed)
        # linear size: at most one gadget state per transition
        assert transformed.num_states <= normalized.num_states + normalized.num_transitions + 1

    def test_requires_total_transitions(self):
        partial = from_transitions(
            [("p", "a", "p")], start="p", accepting=["p"], alphabet={"a", "b"}
        )
        with pytest.raises(ModelClassError):
            lemma42_transform(partial)

    def test_universal_instance_maps_to_universal_instance(self):
        normalized = normalize_for_lemma42(_universal_two_action())
        assert is_universal(normalized)
        transformed = lemma42_transform(normalized)
        assert is_universal(transformed)

    def test_non_universal_instance_maps_to_non_universal_instance(self):
        normalized = normalize_for_lemma42(_missing_word_process())
        assert not is_universal(normalized)
        transformed = lemma42_transform(normalized)
        assert not is_universal(transformed)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "factory,expected",
        [(_universal_two_action, True), (_missing_word_process, False)],
    )
    def test_reduction_decides_universality(self, factory, expected):
        assert decide_universality_via_lemma42(factory()) is expected

    @pytest.mark.parametrize("seed", range(6))
    def test_reduction_agrees_with_direct_check_on_random_instances(self, seed):
        process = random_fsp(
            5, alphabet=("a", "b"), tau_probability=0.1, accepting_probability=0.6, seed=seed
        )
        direct = is_universal(process)
        via_reduction = decide_universality_via_lemma42(process)
        assert direct == via_reduction
