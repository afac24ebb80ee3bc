"""Composition specs: three routes, JSON documents, compositional minimisation."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidProcessError
from repro.core.fsp import from_transitions
from repro.engine import Engine
from repro.equivalence.minimize import minimize_observational
from repro.explore import (
    HideSpec,
    LeafSpec,
    ProductSpec,
    RelabelSpec,
    RestrictSpec,
    compose_eager,
    minimize_compositionally,
    spec_from_document,
    spec_to_document,
)
from repro.generators.families import (
    dining_philosophers_system,
    milner_scheduler_system,
    redundant_interleaving_system,
    token_ring_system,
)
from tests.explore.test_operator_oracle import assert_matches_the_term_semantics


def leaf(seed=0, alphabet=("a", "a!", "b")):
    from repro.generators.random_fsp import random_fsp

    return LeafSpec(random_fsp(4, alphabet=alphabet, all_accepting=True, seed=seed))


def sample_spec():
    return HideSpec(ProductSpec("ccs", leaf(1), leaf(2)), frozenset({"a"}))


class TestRoutes:
    def test_eager_route_matches_the_term_semantics(self):
        assert_matches_the_term_semantics(sample_spec())

    def test_operator_specs_cover_all_constructors(self):
        # no complementary pair between the operands, so CCS ``|`` interleaves
        plain = ("a", "b")
        spec = RelabelSpec(
            RestrictSpec(
                ProductSpec("interleave", leaf(3, plain), leaf(4, plain)), frozenset({"b"})
            ),
            {"a": "c"},
        )
        assert_matches_the_term_semantics(spec)

    def test_sync_over_term_leaves_compiles_them_first(self):
        # CCS-term leaves declare no alphabet until compiled; the
        # synchronous product needs both alphabets.
        document = {
            "op": "sync",
            "left": {"term": "A", "definitions": "A := a.b.A"},
            "right": {"term": "B", "definitions": "B := a.B"},
        }
        composed = compose_eager(spec_from_document(document))
        assert composed.num_states == 2
        assert composed.alphabet == frozenset({"a"})

    def test_unknown_product_operator_rejected(self):
        with pytest.raises(InvalidProcessError, match="operator"):
            ProductSpec("tensor", leaf(), leaf())


class TestMinimizeCompositionally:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: dining_philosophers_system(3),
            lambda: token_ring_system(4),
            lambda: milner_scheduler_system(3),
            lambda: redundant_interleaving_system(2, 3, 2),
        ],
    )
    def test_agrees_with_eager_minimise_after_compose(self, build):
        spec = build()
        compositional = minimize_compositionally(spec)
        eager = minimize_observational(compose_eager(spec))
        verdict = Engine().check(
            compositional, eager, "observational", align=True, witness=False
        )
        assert verdict.equivalent
        # both are minimal, so the quotients have the same size
        assert compositional.num_states == eager.num_states

    def test_redundancy_is_removed_before_the_product(self):
        spec = redundant_interleaving_system(2, 3, 3)
        assert minimize_compositionally(spec).num_states < compose_eager(spec).num_states


class TestDocuments:
    def test_round_trip_preserves_the_composition(self):
        spec = sample_spec()
        document = spec_to_document(spec)
        assert compose_eager(spec_from_document(document)) == compose_eager(spec)

    def test_term_leaves_round_trip(self):
        document = {
            "op": "restrict",
            "of": {
                "op": "ccs",
                "left": {"term": "LEFT", "definitions": "LEFT := in.mid!.LEFT"},
                "right": {"term": "RIGHT", "definitions": "RIGHT := mid.out!.RIGHT"},
            },
            "channels": ["mid"],
        }
        spec = spec_from_document(document)
        rebuilt = spec_from_document(spec_to_document(spec))
        assert compose_eager(rebuilt) == compose_eager(spec)

    def test_default_resolver_accepts_inline_processes_only(self):
        fsp = from_transitions([("p", "a", "q")], start="p", all_accepting=True)
        document = spec_to_document(LeafSpec(fsp))
        assert compose_eager(spec_from_document(document)) == fsp
        with pytest.raises(InvalidProcessError, match="inline"):
            spec_from_document({"file": "nope.json"})

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"op": "ccs", "left": {"term": "0"}}, "missing 'right'"),
            ({"op": "restrict", "of": {"term": "0"}}, "channels"),
            ({"op": "hide", "channels": ["a"]}, "missing 'of'"),
            ({"op": "relabel", "of": {"term": "0"}}, "mapping"),
            ({"op": "quotient", "of": {"term": "0"}}, "unknown system operator"),
            ([1, 2], "JSON object"),
        ],
    )
    def test_malformed_documents_are_rejected(self, document, message):
        with pytest.raises(InvalidProcessError, match=message):
            spec_from_document(document)

    def test_describe_renders_the_shape(self):
        assert "ccs" in sample_spec().of.describe()
        assert dining_philosophers_system(2).describe().startswith("(")
