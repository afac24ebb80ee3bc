"""The ``auto`` backend: size and density dispatch, and python/vector agreement.

``resolve_backend("auto", n, m)`` is the one choke point every caller funnels
through (solve, the engine's process handles, the notion defaults), so these
tests pin its dispatch rule -- vector iff numpy is available, the state count
reaches ``VECTOR_STATE_THRESHOLD`` and, for a refinement, the arcs per state
stay within ``VECTOR_DENSITY_CUT`` -- and then check end-to-end that an
``auto`` answer equals the ``python`` answer on instances that take the
vector path.
"""

from __future__ import annotations

import pytest

from repro.core.lts import LTS
from repro.core.weak import saturate_lts
from repro.engine import Engine
from repro.generators.families import duplicated_chain, tau_ladder
from repro.generators.random_fsp import random_fsp
from repro.partition import generalized, vectorized
from repro.partition.generalized import (
    GeneralizedPartitioningError,
    GeneralizedPartitioningInstance,
    resolve_backend,
    solve,
)
from repro.utils.matrices import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy is not installed")


@pytest.fixture
def vector_calls(monkeypatch):
    """The state counts of the refinements that reach the vector kernel."""
    calls: list[int] = []
    original = vectorized.vector_refine_lts

    def spy(lts, block_of, num_blocks):
        calls.append(lts.n)
        return original(lts, block_of, num_blocks)

    monkeypatch.setattr(vectorized, "vector_refine_lts", spy)
    return calls


# ----------------------------------------------------------------------
# the dispatch rule
# ----------------------------------------------------------------------
def test_concrete_backends_pass_through_unchanged():
    assert resolve_backend("python", 10**9) == "python"
    assert resolve_backend("python", 10**9, 1) == "python"
    if HAVE_NUMPY:
        assert resolve_backend("vector", 1) == "vector"
        assert resolve_backend("vector", 1, 10**9) == "vector"


def test_unknown_backend_is_rejected():
    with pytest.raises(GeneralizedPartitioningError, match="backend"):
        resolve_backend("fortran", 100)


def test_auto_stays_python_below_the_state_threshold():
    n = generalized.VECTOR_STATE_THRESHOLD - 1
    assert resolve_backend("auto", n) == "python"
    assert resolve_backend("auto", n, n) == "python"


@needs_numpy
def test_auto_switches_to_vector_at_the_state_threshold():
    n = generalized.VECTOR_STATE_THRESHOLD
    assert resolve_backend("auto", n) == "vector"
    assert resolve_backend("auto", n, 0) == "vector"


@needs_numpy
@pytest.mark.parametrize("scale", (1, 8))
def test_auto_refinement_stays_vector_up_to_the_density_cut(scale):
    n = generalized.VECTOR_STATE_THRESHOLD * scale
    assert resolve_backend("auto", n, generalized.VECTOR_DENSITY_CUT * n) == "vector"


@pytest.mark.parametrize("scale", (1, 8))
def test_auto_refinement_goes_python_past_the_density_cut(scale):
    n = generalized.VECTOR_STATE_THRESHOLD * scale
    assert resolve_backend("auto", n, generalized.VECTOR_DENSITY_CUT * n + 1) == "python"


def test_auto_without_numpy_always_resolves_python(monkeypatch):
    monkeypatch.setattr("repro.utils.matrices.HAVE_NUMPY", False)
    assert resolve_backend("auto", generalized.VECTOR_STATE_THRESHOLD * 2) == "python"
    assert resolve_backend("auto", generalized.VECTOR_STATE_THRESHOLD * 2, 0) == "python"


@needs_numpy
def test_refine_lts_reads_the_density_of_the_kernel_it_is_given(vector_calls):
    sparse = LTS.from_fsp(duplicated_chain(300, 2))
    dense = saturate_lts(LTS.from_fsp(tau_ladder(300)))
    assert sparse.n >= generalized.VECTOR_STATE_THRESHOLD
    assert sparse.num_transitions <= generalized.VECTOR_DENSITY_CUT * sparse.n
    assert dense.n >= generalized.VECTOR_STATE_THRESHOLD
    assert dense.num_transitions > generalized.VECTOR_DENSITY_CUT * dense.n
    generalized.refine_lts(sparse, backend="auto")
    generalized.refine_lts(dense, backend="auto")
    assert vector_calls == [sparse.n]


# ----------------------------------------------------------------------
# end-to-end agreement (threshold lowered so the vector path really runs)
# ----------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("seed", range(4))
def test_auto_solve_agrees_with_python_above_the_threshold(monkeypatch, vector_calls, seed):
    monkeypatch.setattr(generalized, "VECTOR_STATE_THRESHOLD", 4)
    process = random_fsp(16, tau_probability=0.25, seed=seed)
    instance = GeneralizedPartitioningInstance.from_fsp(process, include_tau=True)
    assert resolve_backend("auto", *instance.size) == "vector"
    auto = solve(instance, backend="auto")
    python = solve(instance, backend="python")
    assert auto.as_frozen() == python.as_frozen()
    assert vector_calls == [16]


@needs_numpy
def test_engine_auto_default_matches_explicit_python(monkeypatch, vector_calls):
    monkeypatch.setattr(generalized, "VECTOR_STATE_THRESHOLD", 4)
    process = duplicated_chain(15, 2)
    auto_engine, python_engine = Engine(), Engine()
    auto = auto_engine.minimize(process, "strong")  # backend defaults to auto
    assert vector_calls == [process.num_states]
    python = python_engine.minimize(process, "strong", backend="python")
    assert auto.num_states == python.num_states
    assert auto_engine.check(process, auto, notion="strong").equivalent
    assert python_engine.check(auto, python, notion="strong").equivalent


def test_auto_and_python_share_one_verdict_cache_slot():
    # Below the threshold auto *is* python, so the engine must not compute
    # or cache the same quotient twice under two backend names.
    engine = Engine()
    process = duplicated_chain(10, 2)
    engine.minimize(process, "strong")  # auto -> python
    engine.minimize(process, "strong", backend="python")

    def minimized_slots() -> int:
        [artifact] = engine.export_stats()["process_artifacts"]
        return artifact["artifacts"]["minimized_strong"]

    assert minimized_slots() == 1  # both calls share one (method, backend) slot
