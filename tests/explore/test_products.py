"""Lazy products and wrappers: seeded random pairs and hand-computed cases.

The seeded pairs are checked against the oracles of
``tests/explore/test_operator_oracle.py`` (the CCS term semantics and
language intersection), which also draw random operands with hypothesis.
"""

from __future__ import annotations

import operator

import pytest

from repro.core.errors import InvalidProcessError
from repro.core.fsp import TAU, from_transitions
from repro.engine import Engine
from repro.equivalence.language import accepted_strings_upto
from repro.explore import (
    CCSAdapter,
    LazyCCSProduct,
    LazyHiding,
    LazyInterleavingProduct,
    LazyRelabeling,
    LazyRestriction,
    LazySynchronousProduct,
    LeafSpec,
    ProductSpec,
    materialize,
)
from repro.explore.products import pair_name
from repro.generators.random_fsp import random_fsp
from tests.explore.test_operator_oracle import assert_matches_the_term_semantics


def sender():
    return from_transitions(
        [("s0", "send!", "s1"), ("s1", TAU, "s0")], start="s0", all_accepting=True
    )


def receiver():
    return from_transitions(
        [("r0", "send", "r1"), ("r1", "deliver", "r0")], start="r0", all_accepting=True
    )


def all_accepting(fsp):
    """``fsp`` with every state accepting: CCS terms carry no acceptance."""
    return from_transitions(
        fsp.transitions, start=fsp.start, alphabet=fsp.alphabet, all_accepting=True
    )


def assert_marks_the_pairs(product, left, right, accepts):
    """Each product state ``(l|r)`` accepts iff ``accepts(l accepts, r accepts)``."""
    pairs = {pair_name(l, r): (l, r) for l in left.states for r in right.states}
    expected = {
        name
        for name in product.states
        if accepts(left.is_accepting(pairs[name][0]), right.is_accepting(pairs[name][1]))
    }
    assert product.accepting_states() == expected


class TestRandomPairs:
    @pytest.mark.parametrize("seed", range(12))
    def test_ccs_product_on_random_pairs(self, seed):
        left = random_fsp(4, alphabet=("a", "b"), tau_probability=0.2, seed=seed)
        right = random_fsp(4, alphabet=("a", "a!", "b"), tau_probability=0.2, seed=seed + 50)
        assert_matches_the_term_semantics(
            ProductSpec("ccs", LeafSpec(all_accepting(left)), LeafSpec(all_accepting(right)))
        )
        product = materialize(LazyCCSProduct(left, right))
        assert_marks_the_pairs(product, left, right, operator.or_)

    @pytest.mark.parametrize("seed", range(12))
    def test_interleaving_on_random_pairs(self, seed):
        # no complementary pair between the operands, so CCS ``|`` interleaves
        left = random_fsp(4, alphabet=("a", "b"), seed=seed)
        right = random_fsp(4, alphabet=("b", "c"), seed=seed + 50)
        assert_matches_the_term_semantics(
            ProductSpec("interleave", LeafSpec(all_accepting(left)), LeafSpec(all_accepting(right)))
        )
        product = materialize(LazyInterleavingProduct(left, right))
        assert_marks_the_pairs(product, left, right, operator.or_)

    @pytest.mark.parametrize("seed", range(12))
    def test_synchronous_on_random_pairs(self, seed):
        left = random_fsp(4, alphabet=("a", "b"), tau_probability=0.2, seed=seed)
        right = random_fsp(4, alphabet=("a", "b"), tau_probability=0.2, seed=seed + 50)
        product = materialize(LazySynchronousProduct(left, right))
        both = accepted_strings_upto(left, 4) & accepted_strings_upto(right, 4)
        assert accepted_strings_upto(product, 4) == both
        assert_marks_the_pairs(product, left, right, operator.and_)

    def test_extension_modes_on_random_pairs(self):
        left = random_fsp(3, accepting_probability=0.5, seed=1)
        right = random_fsp(3, accepting_probability=0.5, seed=2)
        for product in (LazyCCSProduct, LazyInterleavingProduct, LazySynchronousProduct):
            for mode, accepts in (("union", operator.or_), ("intersection", operator.and_)):
                assert_marks_the_pairs(
                    materialize(product(left, right, mode)), left, right, accepts
                )


class TestProducts:
    def test_synchronisation_appears_as_tau(self):
        product = materialize(LazyCCSProduct(sender(), receiver()))
        assert ("(s0|r0)", TAU, "(s1|r1)") in product.transitions

    def test_bad_extension_mode_rejected(self):
        with pytest.raises(InvalidProcessError, match="extension mode"):
            LazyCCSProduct(sender(), receiver(), "both")


#: sender | receiver restricted on ``send``: only the handshake tau remains of it.
RESTRICTED = {
    ("(s0|r0)", TAU, "(s1|r1)"),
    ("(s1|r1)", TAU, "(s0|r1)"),
    ("(s1|r1)", "deliver", "(s1|r0)"),
    ("(s0|r1)", "deliver", "(s0|r0)"),
    ("(s1|r0)", TAU, "(s0|r0)"),
}


class TestWrappers:
    def test_restriction_prunes_the_channel_and_its_co_action(self):
        restricted = materialize(LazyRestriction(LazyCCSProduct(sender(), receiver()), ["send"]))
        assert restricted.transitions == RESTRICTED
        assert restricted.alphabet == frozenset({"deliver"})
        loop = from_transitions([("d", "deliver", "d")], start="d", all_accepting=True)
        assert Engine().check(restricted, loop, "observational", witness=False).equivalent

    def test_hiding_turns_the_channel_and_its_co_action_into_tau(self):
        product = LazyCCSProduct(sender(), receiver())
        hidden = materialize(LazyHiding(product, ["send"]))
        expected = {
            (src, TAU if action in ("send", "send!") else action, dst)
            for src, action, dst in materialize(product).transitions
        }
        assert hidden.transitions == expected
        assert hidden.alphabet == frozenset({"deliver"})

    def test_relabeling_renames_the_co_action_with_its_channel(self):
        renamed = materialize(LazyRelabeling(sender(), {"send": "emit"}))
        assert renamed.transitions == {("s0", "emit!", "s1"), ("s1", TAU, "s0")}
        assert renamed.alphabet == frozenset({"emit!"})

    def test_relabeling_rejects_tau(self):
        with pytest.raises(InvalidProcessError, match="tau"):
            LazyRelabeling(sender(), {TAU: "x"})

    def test_wrappers_compose_with_products(self):
        restricted = LazyRestriction(LazyCCSProduct(sender(), receiver()), ["send"])
        renamed = materialize(LazyRelabeling(restricted, {"deliver": "out"}))
        assert renamed.transitions == {
            (src, "out" if action == "deliver" else action, dst)
            for src, action, dst in RESTRICTED
        }

    def test_synchronous_product_requires_alphabets(self):
        from repro.ccs.parser import parse_process

        with pytest.raises(InvalidProcessError, match="alphabet"):
            LazySynchronousProduct(CCSAdapter(parse_process("a.0")), sender())
