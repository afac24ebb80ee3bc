"""The process-level composition operators (Section 6 extensions), materialised.

The operators are the lazy products and wrappers of
:mod:`repro.explore.products`; these cases check the FSPs that
:func:`~repro.explore.materialize` builds from them.
"""

from __future__ import annotations

import pytest

from repro.ccs.parser import parse_process
from repro.ccs.semantics import compile_to_fsp
from repro.core.errors import InvalidProcessError
from repro.core.fsp import TAU, from_transitions
from repro.equivalence.language import accepted_strings_upto
from repro.equivalence.observational import observationally_equivalent_processes
from repro.explore import (
    LazyCCSProduct,
    LazyHiding,
    LazyInterleavingProduct,
    LazyRelabeling,
    LazyRestriction,
    LazySynchronousProduct,
    materialize,
)
from repro.explore.products import pair_name
from repro.reductions.theorem41c import make_restricted


def _ab_chain():
    return from_transitions([("p0", "a", "p1"), ("p1", "b", "p2")], start="p0", all_accepting=True)


def _ba_chain():
    return from_transitions([("q0", "b", "q1"), ("q1", "a", "q2")], start="q0", all_accepting=True)


class TestSynchronousProduct:
    def test_intersection_of_languages(self):
        over_ab = from_transitions(
            [("p", "a", "p"), ("p", "b", "p")], start="p", all_accepting=True
        )
        only_a = from_transitions(
            [("q", "a", "q")], start="q", all_accepting=True, alphabet={"a", "b"}
        )
        product = materialize(LazySynchronousProduct(over_ab, only_a))
        assert accepted_strings_upto(product, 3) == accepted_strings_upto(only_a, 3)

    def test_mismatched_chains_deadlock_immediately(self):
        product = materialize(LazySynchronousProduct(_ab_chain(), _ba_chain()))
        assert accepted_strings_upto(product, 3) == frozenset({()})

    def test_tau_moves_are_local(self):
        noisy = from_transitions(
            [("p", TAU, "p1"), ("p1", "a", "p2")], start="p", all_accepting=True
        )
        plain = from_transitions([("q", "a", "q1")], start="q", all_accepting=True)
        product = materialize(LazySynchronousProduct(noisy, plain))
        assert ("a",) in accepted_strings_upto(product, 2)

    def test_extension_mode_validation(self):
        with pytest.raises(InvalidProcessError):
            LazySynchronousProduct(_ab_chain(), _ab_chain(), extension_mode="bogus")


class TestInterleavingProduct:
    def test_shuffle_of_languages(self):
        product = materialize(LazyInterleavingProduct(_ab_chain(), _ba_chain()))
        strings = accepted_strings_upto(product, 4)
        assert ("a", "b", "b", "a") in strings
        assert ("b", "a", "a", "b") in strings
        # both components start differently, so a doubled first action is impossible
        assert ("a", "a") not in strings
        assert ("b", "b") not in strings

    def test_size_is_bounded_by_the_product(self):
        product = materialize(LazyInterleavingProduct(_ab_chain(), _ba_chain()))
        assert product.num_states <= _ab_chain().num_states * _ba_chain().num_states


class TestCcsComposition:
    def test_matches_term_level_semantics(self):
        """Composing compiled components equals compiling the composed term."""
        left = compile_to_fsp(parse_process("a.c!.0"))
        right = compile_to_fsp(parse_process("c.b.0"))
        composed = materialize(
            LazyCCSProduct(
                left.with_alphabet({"a", "b", "c", "c!"}),
                right.with_alphabet({"a", "b", "c", "c!"}),
            )
        )
        direct = compile_to_fsp(parse_process("a.c!.0 | c.b.0"))
        aligned = direct.with_alphabet(composed.alphabet)
        assert observationally_equivalent_processes(
            make_restricted(composed), make_restricted(aligned)
        )

    def test_synchronisation_appears_as_tau(self):
        sender = from_transitions([("s", "c!", "s1")], start="s", all_accepting=True)
        receiver = from_transitions([("r", "c", "r1")], start="r", all_accepting=True)
        composed = materialize(
            LazyCCSProduct(sender.with_alphabet({"c", "c!"}), receiver.with_alphabet({"c", "c!"}))
        )
        assert composed.has_tau()

    def test_restriction_after_composition_hides_the_channel(self):
        sender = from_transitions([("s", "c!", "s1")], start="s", all_accepting=True)
        receiver = from_transitions([("r", "c", "r1")], start="r", all_accepting=True)
        composed = materialize(
            LazyCCSProduct(sender.with_alphabet({"c", "c!"}), receiver.with_alphabet({"c", "c!"}))
        )
        restricted = materialize(LazyRestriction(composed, ["c"]))
        assert restricted.alphabet == frozenset()
        # only the synchronised tau remains
        assert all(action == TAU for _s, action, _t in restricted.transitions)


class TestUnaryOperators:
    def test_restrict_removes_channel_and_co_action(self):
        process = from_transitions(
            [("p", "a", "q"), ("p", "a!", "r"), ("p", "b", "s")],
            start="p",
            all_accepting=True,
        )
        restricted = materialize(LazyRestriction(process, ["a"]))
        assert restricted.alphabet == frozenset({"b"})
        assert accepted_strings_upto(restricted, 2) == frozenset({(), ("b",)})

    def test_hide_turns_actions_into_tau(self):
        process = _ab_chain()
        hidden = materialize(LazyHiding(process, ["a"]))
        assert hidden.has_tau()
        assert accepted_strings_upto(hidden, 2) == frozenset({(), ("b",)})

    def test_hide_then_weak_equivalence(self):
        """Hiding the internal action makes the chain weakly equivalent to b.0."""
        hidden = materialize(LazyHiding(_ab_chain(), ["a"]))
        spec = from_transitions([("q", "b", "q1")], start="q", all_accepting=True, alphabet={"b"})
        assert observationally_equivalent_processes(hidden, spec)

    def test_relabel_renames_channel_and_co_action(self):
        process = from_transitions(
            [("p", "a", "q"), ("q", "a!", "r")], start="p", all_accepting=True
        )
        renamed = materialize(LazyRelabeling(process, {"a": "z"}))
        assert renamed.alphabet == frozenset({"z", "z!"})
        assert ("z", "z!") in accepted_strings_upto(renamed, 2)

    def test_relabel_rejects_tau(self):
        with pytest.raises(InvalidProcessError):
            LazyRelabeling(_ab_chain(), {TAU: "a"})


class TestAsciiPairNames:
    """Regression: composed state names must survive every serialisation path."""

    def test_pair_names_are_plain_ascii(self):
        product = materialize(LazyCCSProduct(_ab_chain(), _ba_chain()))
        for state in product.states:
            state.encode("ascii")  # raises on any non-ASCII separator
        assert pair_name("p0", "q0") == "(p0|q0)"
        assert pair_name("p0", "q0") in product.states

    def test_composed_process_round_trips_through_aut(self, tmp_path):
        from repro.engine import default_engine
        from repro.utils.serialization import load_process_file, save_process_file

        product = materialize(LazyCCSProduct(_ab_chain(), _ba_chain()))
        path = tmp_path / "composed.aut"
        save_process_file(product, path)
        path.read_text(encoding="ascii")  # the file itself is ASCII-clean
        reloaded = load_process_file(path)
        verdict = default_engine().check(product, reloaded, "strong", align=True, witness=False)
        assert verdict.equivalent

    def test_composed_process_round_trips_through_json(self, tmp_path):
        from repro.utils import serialization

        product = materialize(LazyInterleavingProduct(_ab_chain(), _ba_chain()))
        path = tmp_path / "composed.json"
        serialization.dump(product, path)
        assert serialization.load(path) == product

    def test_colliding_pair_names_are_rejected_not_merged(self):
        # component names containing the separator could alias two distinct
        # product states to one name; materialising must refuse, not merge.
        left = from_transitions(
            [("a|b", "go", "a")], start="a|b", all_accepting=True, alphabet={"go", "hop"}
        )
        right = from_transitions(
            [("c", "hop", "b|c")], start="c", all_accepting=True, alphabet={"go", "hop"}
        )
        with pytest.raises(InvalidProcessError, match="collision"):
            materialize(LazyInterleavingProduct(left, right))
