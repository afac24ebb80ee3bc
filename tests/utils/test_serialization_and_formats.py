"""Tests for JSON serialisation, Aldebaran I/O, DOT export and matrix helpers."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidProcessError
from repro.core.fsp import TAU, from_transitions
from repro.core.weak import WeakKernel
from repro.generators.random_fsp import random_fsp
from repro.utils import aut_format, dot, matrices, serialization


@pytest.fixture
def sample_process():
    return from_transitions(
        [("p", "a", "q"), ("q", TAU, "r"), ("r", "b", "p")],
        start="p",
        accepting=["q", "r"],
        alphabet={"a", "b"},
    )


class TestProcessFileDispatch:
    """Extension-dispatched loading/saving with unknown-extension rejection."""

    def test_json_dispatch_round_trip(self, sample_process, tmp_path):
        path = tmp_path / "process.json"
        serialization.save_process_file(sample_process, path)
        assert serialization.load_process_file(path) == sample_process

    def test_aut_dispatch_preserves_acceptance(self, sample_process, tmp_path):
        path = tmp_path / "process.aut"
        serialization.save_process_file(sample_process, path)
        reloaded = serialization.load_process_file(path)
        assert len(reloaded.accepting_states()) == len(sample_process.accepting_states())
        assert reloaded.num_transitions == sample_process.num_transitions

    def test_plain_aut_loads_as_restricted(self, tmp_path):
        path = tmp_path / "plain.aut"
        path.write_text('des (0, 1, 2)\n(0, "a", 1)\n', encoding="utf-8")
        reloaded = serialization.load_process_file(path)
        assert reloaded.accepting_states() == reloaded.states

    def test_dot_dispatch_writes_but_never_reads(self, sample_process, tmp_path):
        path = tmp_path / "process.dot"
        serialization.save_process_file(sample_process, path)
        assert path.read_text(encoding="utf-8").startswith("digraph")
        with pytest.raises(InvalidProcessError, match="write-only"):
            serialization.load_process_file(path)

    @pytest.mark.parametrize("name", ["process.xml", "process.yaml", "process"])
    def test_unknown_extensions_rejected_with_format_list(self, name, tmp_path):
        path = tmp_path / name
        path.write_text("whatever", encoding="utf-8")
        with pytest.raises(InvalidProcessError, match="loadable formats"):
            serialization.load_process_file(path)

    def test_unknown_save_extension_rejected(self, sample_process, tmp_path):
        with pytest.raises(InvalidProcessError, match="supported formats"):
            serialization.save_process_file(sample_process, tmp_path / "out.xml")

    def test_extensions_are_case_insensitive(self, sample_process, tmp_path):
        path = tmp_path / "process.JSON"
        serialization.save_process_file(sample_process, path)
        assert serialization.load_process_file(path) == sample_process


class TestJsonSerialization:
    def test_round_trip(self, sample_process):
        assert serialization.loads(serialization.dumps(sample_process)) == sample_process

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_random(self, seed):
        process = random_fsp(7, tau_probability=0.2, seed=seed)
        assert serialization.loads(serialization.dumps(process)) == process

    def test_file_round_trip(self, sample_process, tmp_path):
        path = tmp_path / "process.json"
        serialization.dump(sample_process, path)
        assert serialization.load(path) == sample_process

    def test_format_marker_required(self):
        with pytest.raises(InvalidProcessError):
            serialization.from_dict({"states": ["p"], "start": "p"})

    def test_newer_version_rejected(self, sample_process):
        document = serialization.to_dict(sample_process)
        document["version"] = 999
        with pytest.raises(InvalidProcessError):
            serialization.from_dict(document)


class TestAldebaran:
    def test_round_trip_with_acceptance_marker(self, sample_process):
        text = aut_format.dumps(sample_process, accepting_label="ACCEPT")
        loaded = aut_format.loads(text, accepting_label="ACCEPT")
        # state names change (integers) but sizes and tau usage survive
        assert loaded.num_states == sample_process.num_states
        assert loaded.num_transitions == sample_process.num_transitions
        assert loaded.has_tau()
        assert len(loaded.accepting_states()) == len(sample_process.accepting_states())

    def test_round_trip_all_accepting(self, simple_chain):
        text = aut_format.dumps(simple_chain)
        loaded = aut_format.loads(text, all_accepting=True)
        assert loaded.num_states == simple_chain.num_states
        assert loaded.accepting_states() == loaded.states

    def test_header_and_format(self, simple_chain):
        text = aut_format.dumps(simple_chain)
        assert text.startswith("des (0, 2, 3)")

    def test_malformed_header_rejected(self):
        with pytest.raises(InvalidProcessError):
            aut_format.loads("not a header\n(0, \"a\", 1)")

    def test_malformed_transition_rejected(self):
        with pytest.raises(InvalidProcessError):
            aut_format.loads('des (0, 1, 2)\n(0, "a" 1)')

    def test_transition_count_checked(self):
        with pytest.raises(InvalidProcessError):
            aut_format.loads('des (0, 2, 2)\n(0, "a", 1)')

    def test_empty_document_rejected(self):
        with pytest.raises(InvalidProcessError):
            aut_format.loads("")

    def test_file_round_trip(self, simple_chain, tmp_path):
        path = tmp_path / "process.aut"
        aut_format.dump(simple_chain, path, accepting_label="ACC")
        loaded = aut_format.load(path, accepting_label="ACC")
        assert loaded.num_states == simple_chain.num_states


class TestDot:
    def test_dot_output_contains_states_and_edges(self, sample_process):
        text = dot.to_dot(sample_process)
        assert "digraph" in text
        assert '"p" -> "q" [label="a"]' in text
        assert "doublecircle" in text  # accepting states
        assert "style=dashed" in text  # tau edge

    def test_write_dot(self, simple_chain, tmp_path):
        path = tmp_path / "chain.dot"
        dot.write_dot(simple_chain, path)
        assert path.read_text().startswith("digraph")


class TestMatrices:
    def test_weak_transition_matrices_agree_with_graph_traversal(self, sample_process):
        weak = matrices.weak_transition_matrices(sample_process)
        kernel = WeakKernel.from_fsp(sample_process)
        for action in sample_process.alphabet:
            pairs = matrices.matrix_to_pairs(sample_process, weak[action])
            for state in sample_process.states:
                expected = kernel.weak_successors(state, action)
                actual = frozenset(dst for src, dst in pairs if src == state)
                assert actual == expected

    def test_epsilon_matrix_is_reflexive(self, sample_process):
        weak = matrices.weak_transition_matrices(sample_process)
        epsilon_pairs = matrices.matrix_to_pairs(sample_process, weak[""])
        for state in sample_process.states:
            assert (state, state) in epsilon_pairs

    def test_boolean_multiply_matches_manual(self):
        left = [[True, False], [False, True]]
        right = [[False, True], [True, False]]
        assert matrices.boolean_multiply(left, right) == [[False, True], [True, False]]

    def test_reflexive_transitive_closure(self):
        matrix = [[False, True, False], [False, False, True], [False, False, False]]
        closure = matrices.reflexive_transitive_closure(matrix)
        assert closure[0][2] is True
        assert closure[2][2] is True
        assert closure[2][0] is False


class TestContentDigest:
    """Content addressing: digest stability under permutation, sensitivity to change."""

    def test_digest_shape(self, sample_process):
        digest = serialization.content_digest(sample_process)
        assert digest.startswith("sha256:")
        assert len(digest) == len("sha256:") + 64

    def test_digest_stable_under_component_permutation(self, sample_process):
        from repro.core.fsp import FSP

        permuted = FSP(
            states=sorted(sample_process.states, reverse=True),
            start=sample_process.start,
            alphabet=sorted(sample_process.alphabet, reverse=True),
            transitions=sorted(sample_process.transitions, reverse=True),
            variables=sample_process.variables,
            extensions=sorted(sample_process.extensions, reverse=True),
        )
        assert serialization.content_digest(permuted) == serialization.content_digest(
            sample_process
        )

    def test_digest_stable_across_serialisation_round_trip(self):
        for seed in range(5):
            process = random_fsp(12, tau_probability=0.3, all_accepting=False, seed=seed)
            reloaded = serialization.loads(serialization.dumps(process))
            assert serialization.content_digest(reloaded) == serialization.content_digest(process)

    def test_digest_differs_on_any_semantic_change(self, sample_process):
        from repro.core.fsp import FSP

        digest = serialization.content_digest(sample_process)
        variants = [
            FSP(  # different start state
                states=sample_process.states,
                start="q",
                alphabet=sample_process.alphabet,
                transitions=sample_process.transitions,
                variables=sample_process.variables,
                extensions=sample_process.extensions,
            ),
            FSP(  # one extension dropped
                states=sample_process.states,
                start=sample_process.start,
                alphabet=sample_process.alphabet,
                transitions=sample_process.transitions,
                variables=sample_process.variables,
                extensions=[("q", "x")],
            ),
            FSP(  # extra observable action in the alphabet
                states=sample_process.states,
                start=sample_process.start,
                alphabet=sample_process.alphabet | {"c"},
                transitions=sample_process.transitions,
                variables=sample_process.variables,
                extensions=sample_process.extensions,
            ),
        ]
        digests = {serialization.content_digest(variant) for variant in variants}
        assert digest not in digests
        assert len(digests) == len(variants)

    def test_canonical_bytes_are_newline_free_and_deterministic(self, sample_process):
        blob = serialization.canonical_bytes(sample_process)
        assert b"\n" not in blob
        assert blob == serialization.canonical_bytes(sample_process)
