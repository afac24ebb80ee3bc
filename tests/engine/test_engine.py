"""Tests for the :class:`repro.engine.Engine` facade: caching, batches, registry."""

from __future__ import annotations

import pytest

from repro.core import lts as lts_module
from repro.core.errors import ModelClassError, StateSpaceLimitError
from repro.core.fsp import FSP, TAU, from_transitions
from repro.core.lts import LTS
from repro.core.paper_figures import fig2_language_pair
from repro.core.weak import WeakKernel
from repro.engine import (
    Engine,
    Notion,
    NotionResult,
    available_notions,
    check,
    default_engine,
    expression_notions,
    get_notion,
    register_notion,
    reset_default_engine,
    unregister_notion,
)
from repro.equivalence.failure import failure_distinguishing_string
from repro.equivalence.kobs import k_observational_equivalent
from repro.generators.families import with_snag
from repro.generators.random_fsp import random_equivalent_copy, random_fsp
from repro.utils import serialization


@pytest.fixture
def pair():
    return fig2_language_pair()


@pytest.fixture
def engine():
    return Engine()


class TestCheck:
    def test_answers_match_the_notions(self, engine, pair):
        first, second = pair
        assert engine.check(first, second, "language", align=True).equivalent
        assert not engine.check(first, second, "observational", align=True).equivalent
        assert not engine.check(first, second, "strong", align=True).equivalent
        assert not engine.check(first, second, "failure", align=True).equivalent
        assert engine.check(first, second, "k-observational", align=True, k=1).equivalent
        assert not engine.check(first, second, "k-observational", align=True, k=2).equivalent

    def test_verdict_is_truthy_on_equivalence(self, engine, pair):
        first, _ = pair
        assert engine.check(first, first, "strong")
        assert not engine.check(*pair, "strong", align=True)

    def test_aliases_resolve(self, engine, pair):
        first, _ = pair
        assert engine.check(first, first, "bisimulation").notion == "strong"
        assert engine.check(first, first, "weak").notion == "observational"
        assert engine.check(first, first, "trace").notion == "language"

    def test_unknown_notion_lists_the_registry(self, engine, pair):
        with pytest.raises(ValueError, match="registered notions"):
            engine.check(*pair, "telepathic")

    def test_unknown_parameter_rejected(self, engine, pair):
        with pytest.raises(TypeError, match="does not accept"):
            engine.check(*pair, "strong", depth=3)

    def test_mismatched_alphabets_require_align(self, engine):
        left = from_transitions([("p", "a", "p")], start="p", all_accepting=True)
        right = from_transitions([("q", "b", "q")], start="q", all_accepting=True)
        with pytest.raises(ModelClassError):
            engine.check(left, right, "strong")
        verdict = engine.check(left, right, "strong", align=True)
        assert not verdict.equivalent

    def test_stats_carry_sizes_and_timing(self, engine, pair):
        verdict = engine.check(*pair, "observational", align=True)
        assert verdict.stats.left_states == pair[0].num_states
        assert verdict.stats.seconds >= 0.0
        assert not verdict.stats.from_cache


class TestCaching:
    def test_repeat_check_hits_the_verdict_cache(self, engine, pair):
        cold = engine.check(*pair, "observational", align=True)
        warm = engine.check(*pair, "observational", align=True)
        assert not cold.stats.from_cache
        assert warm.stats.from_cache
        assert warm.equivalent == cold.equivalent
        info = engine.cache_info()
        assert info["hits"] == 1

    def test_structurally_equal_processes_share_one_handle(self, engine, pair):
        first, _ = pair
        copy = from_transitions(
            [(s, a, t) for s, a, t in first.transitions],
            start=first.start,
            alphabet=first.alphabet,
            all_accepting=True,
        )
        assert first == copy
        assert engine.process(first) is engine.process(copy)

    def test_cached_inequivalence_upgrades_to_witness_on_demand(self, engine, pair):
        without = engine.check(*pair, "strong", align=True, witness=False)
        assert without.witness is None
        upgraded = engine.check(*pair, "strong", align=True, witness=True)
        assert upgraded.witness is not None
        again = engine.check(*pair, "strong", align=True, witness=True)
        assert again.stats.from_cache

    def test_params_are_part_of_the_cache_key(self, engine, pair):
        assert engine.check(*pair, "k-observational", align=True, k=1).equivalent
        assert not engine.check(*pair, "k-observational", align=True, k=2).equivalent

    def test_default_valued_params_share_the_cache_entry(self, engine, pair):
        """Explicit defaults (the shim call shape) must not duplicate cache keys."""
        engine.check(*pair, "failure", align=True)
        assert engine.check(*pair, "failure", align=True, max_macro_states=None).stats.from_cache
        engine.check(*pair, "strong", align=True)
        hit = engine.check(
            *pair, "strong", align=True, method="paige-tarjan", require_observable=False
        )
        assert hit.stats.from_cache

    def test_execution_hints_share_the_cache_entry(self, engine, pair):
        """The solver and backend never change a verdict, so they are not in the key."""
        engine.check(*pair, "observational", align=True, method="naive")
        again = engine.check(
            *pair, "observational", align=True, method="kanellakis-smolka", backend="python"
        )
        assert again.stats.from_cache
        assert engine.cache_info()["verdicts"] == 1

    def test_process_cache_is_bounded(self, pair):
        small = Engine(max_processes=2, max_verdicts=2)
        for i in range(4):
            fsp = from_transitions([("p", "a", f"q{i}")], start="p", all_accepting=True)
            small.process(fsp)
        assert small.cache_info()["processes"] == 2

    def test_clear_resets_everything(self, engine, pair):
        engine.check(*pair, "language", align=True)
        engine.clear()
        assert engine.cache_info() == {"processes": 0, "verdicts": 0, "hits": 0, "misses": 0}


def _universal_pair(n: int = 8):
    """Two processes whose every state is weakly bisimilar to one a,b-loop.

    The left one has ``n`` states and a subset construction that reaches
    dozens of macro-states; both observational quotients have one state.
    """
    arcs = []
    for i in range(n):
        arcs += [
            (f"u{i}", "a", f"u{(i + 1) % n}"),
            (f"u{i}", "a", "u0"),
            (f"u{i}", "b", f"u{2 * i % n}"),
            (f"u{i}", "b", f"u{(3 * i + 1) % n}"),
        ]
    left = from_transitions(arcs, start="u0", all_accepting=True)
    right = from_transitions(
        [("v", TAU, "w"), ("w", "a", "v"), ("w", "b", "v")], start="v", all_accepting=True
    )
    return left, right


class TestSearchBounds:
    """A caller's bound limits the search over the observational quotients."""

    def test_bounded_failure_check_answers_on_the_quotients(self, engine):
        left, right = _universal_pair()
        assert engine.check(left, right, "failure", max_macro_states=4).equivalent
        union = left.disjoint_union(right)
        with pytest.raises(StateSpaceLimitError):
            failure_distinguishing_string(union, "L:u0", "R:v", max_macro_states=4)

    def test_bounded_k_observational_check_answers_on_the_quotients(self, engine):
        left, right = _universal_pair()
        assert engine.check(left, right, "k-observational", k=2, max_subset_states=4).equivalent
        union = left.disjoint_union(right)
        with pytest.raises(StateSpaceLimitError):
            k_observational_equivalent(union, "L:u0", "R:v", 2, max_subset_states=4)


class TestWeakWitnesses:
    """The weak notions' witnesses come from work the check has already done."""

    def test_k_observational_witness_is_the_observational_one(self, engine, pair):
        """Both are read off the CSR union of the cached saturated quotients."""
        kobs = engine.check(*pair, "k-observational", align=True, k=2)
        observational = engine.check(*pair, "observational", align=True)
        assert kobs.witness == observational.witness
        assert kobs.verify_witness() is True

    def test_failure_witness_is_read_off_the_search(self, engine, pair, monkeypatch):
        """No kernel: the search walks the saturated quotients, and the witness replays nothing."""
        built = []
        init = WeakKernel.__init__

        def counting(self, lts):
            built.append(lts)
            init(self, lts)

        monkeypatch.setattr(WeakKernel, "__init__", counting)
        verdict = engine.check(*pair, "failure", align=True)
        assert not verdict.equivalent
        assert built == []
        assert verdict.verify_witness() is True


class TestOperandTraffic:
    """A check reads its processes through the integer kernel, not an FSP index or map."""

    NOTIONS = (
        ("strong", {}),
        ("observational", {}),
        ("language", {}),
        ("failure", {}),
        ("k-observational", {"k": 2}),
    )

    @staticmethod
    def documents() -> list[dict]:
        """Wire documents of a process, an equivalent copy and a snagged copy."""
        base = random_fsp(14, tau_probability=0.3, all_accepting=True, seed=7)
        copy = random_equivalent_copy(base, duplicates=4, seed=3)
        snagged = with_snag(copy, copy.start)
        alphabet = snagged.alphabet | base.alphabet
        return [
            serialization.to_dict(fsp.with_alphabet(alphabet)) for fsp in (base, copy, snagged)
        ]

    def test_decode_and_check_never_build_an_operand_successor_index(self, monkeypatch):
        documents = self.documents()
        # No FSP -- operand or quotient -- may build its index while a
        # document is decoded or a check runs.
        busy = [False]
        build = FSP._successor_index

        def guarded(fsp):
            if busy[0]:
                raise AssertionError("a successor index was built")
            return build(fsp)

        def guard(step, *args, **kwargs):
            busy[0] = True
            try:
                return step(*args, **kwargs)
            finally:
                busy[0] = False

        monkeypatch.setattr(FSP, "_successor_index", guarded)
        verdicts = []
        for other, equivalent in ((1, True), (2, False)):
            left = guard(serialization.from_dict, documents[0])
            right = guard(serialization.from_dict, documents[other])
            for notion, params in self.NOTIONS:
                engine = Engine()
                verdict = guard(engine.check, left, right, notion, **params)
                assert verdict.equivalent is equivalent, notion
                assert (verdict.witness is None) is equivalent, notion
                if notion in ("failure", "k-observational"):
                    for fsp in (left, right):
                        summary = engine.process(fsp).artifact_summary()
                        assert summary["minimized_observational"] == 0, notion
                verdicts.append(verdict)
        monkeypatch.undo()
        assert all(verdict.equivalent or verdict.verify_witness() for verdict in verdicts)

    def test_a_check_reuses_the_decoded_kernel_and_maps_no_extensions(self):
        documents = self.documents()
        interned = []
        intern = lts_module._intern

        def counting(*args, **kwargs):
            interned.append(args)
            return intern(*args, **kwargs)

        def refuse(fsp):
            raise AssertionError("an extension map was built")

        verdicts = []
        for other, equivalent in ((1, True), (2, False)):
            operands = tuple(serialization.from_dict(documents[i]) for i in (0, other))
            kernels = [LTS.from_fsp(fsp) for fsp in operands]
            for notion, params in self.NOTIONS:
                engine = Engine()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(lts_module, "_intern", counting)
                    patch.setattr(FSP, "_extension_map", refuse)
                    verdict = engine.check(*operands, notion, **params)
                    for fsp, kernel in zip(operands, kernels):
                        assert engine.process(fsp).lts() is kernel, notion
                assert interned == [], notion
                assert verdict.equivalent is equivalent, notion
                verdicts.append(verdict)
        assert all(verdict.equivalent or verdict.verify_witness() for verdict in verdicts)


class TestCheckMany:
    def test_manifest_shapes(self, engine, pair):
        first, second = pair
        result = engine.check_many(
            [
                (first, second),
                (first, second, "language"),
                {"left": first, "right": second, "notion": "k-observational", "k": 1},
            ]
        )
        assert len(result) == 3
        assert [v.notion for v in result] == ["observational", "language", "k-observational"]
        assert [v.equivalent for v in result] == [False, True, True]
        assert result.summary()["checks"] == 3

    def test_repeated_pairs_hit_the_cache(self, engine, pair):
        result = engine.check_many([pair] * 10, notion="strong")
        assert result.cache_hits == 9
        assert result.num_inequivalent == 10

    def test_paths_are_loaded_once_per_batch(self, engine, pair, tmp_path, monkeypatch):
        import repro.engine.engine as engine_module

        first, second = pair
        left_path = tmp_path / "left.json"
        right_path = tmp_path / "right.json"
        serialization.dump(first, left_path)
        serialization.dump(second, right_path)
        loads = []
        original = serialization.load_process_file
        monkeypatch.setattr(
            engine_module,
            "_parse_check_spec",
            engine_module._parse_check_spec,
        )
        monkeypatch.setattr(
            serialization,
            "load_process_file",
            lambda path: (loads.append(str(path)), original(path))[1],
        )
        result = engine.check_many(
            [(str(left_path), str(right_path)), (str(left_path), str(right_path), "language")]
        )
        assert len(result) == 2
        assert len(loads) == 2  # two distinct files, each loaded exactly once

    def test_bad_entry_reports_the_index(self, engine):
        with pytest.raises(ValueError, match="check #0"):
            engine.check_many([{"left": "only.json"}])
        with pytest.raises(ValueError, match="check #0"):
            engine.check_many([("too", "many", "items", "here")])


class TestMinimize:
    def test_minimize_dispatch(self, engine):
        bloated = from_transitions(
            [("p", "a", "x"), ("p", "a", "y"), ("x", "b", "z"), ("y", "b", "z")],
            start="p",
            all_accepting=True,
        )
        strong_min = engine.minimize(bloated, "strong")
        obs_min = engine.minimize(bloated, "observational")
        assert strong_min.num_states < bloated.num_states
        assert obs_min.num_states <= strong_min.num_states
        with pytest.raises(ValueError, match="minimisation"):
            engine.minimize(bloated, "language")


class TestExpressions:
    def test_expression_checks_match_the_legacy_answers(self, engine):
        assert not engine.check_expressions("a.(b + c)", "a.b + a.c", "strong").equivalent
        assert engine.check_expressions("a.(b + c)", "a.b + a.c", "language").equivalent
        assert not engine.check_expressions("a.(b + c)", "a.b + a.c", "failure").equivalent
        assert engine.check_expressions("a + b", "b + a", "strong").equivalent

    def test_language_expression_witness_is_checkable(self, engine):
        verdict = engine.check_expressions("a.b", "a.c", "language")
        assert not verdict.equivalent
        assert verdict.witness is not None
        assert verdict.verify_witness() is True

    def test_strong_expression_witness_is_checkable(self, engine):
        verdict = engine.check_expressions("a.(b + c)", "a.b + a.c", "strong")
        assert not verdict.equivalent
        assert verdict.verify_witness() is True


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(available_notions()) >= {
            "strong",
            "observational",
            "k-observational",
            "language",
            "failure",
        }
        assert set(expression_notions()) >= {"strong", "observational", "language", "failure"}

    def test_register_and_unregister_a_custom_notion(self, engine, pair):
        class AlwaysEqual(Notion):
            name = "always-equal"
            provides_witness = False
            supports_expressions = False

            def check(self, left, right, want_witness, **params):
                return NotionResult(True)

        register_notion(AlwaysEqual())
        try:
            assert "always-equal" in available_notions()
            assert "always-equal" not in expression_notions()
            assert engine.check(*pair, "always-equal", align=True).equivalent
        finally:
            unregister_notion("always-equal")
        assert "always-equal" not in available_notions()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_notion(get_notion("strong"))


class TestDefaultEngine:
    def test_module_level_check_uses_the_shared_engine(self, pair):
        reset_default_engine()
        try:
            verdict = check(*pair, "language", align=True)
            assert verdict.equivalent
            assert default_engine().cache_info()["misses"] >= 1
        finally:
            reset_default_engine()

    def test_free_function_shims_share_the_default_engine(self, pair):
        from repro.equivalence.strong import strongly_equivalent_processes

        reset_default_engine()
        try:
            first, _ = pair
            assert strongly_equivalent_processes(first, first)
            assert strongly_equivalent_processes(first, first)
            assert default_engine().cache_info()["hits"] >= 1
        finally:
            reset_default_engine()
