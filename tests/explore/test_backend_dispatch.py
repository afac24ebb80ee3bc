"""Tests for the vector-backend dispatch in compositional minimisation.

``minimize_compositionally`` defaults to ``backend="auto"``: each
intermediate quotient runs on the vectorized numpy kernel once its state
count clears ``VECTOR_STATE_THRESHOLD`` (and numpy is present), and on the
sequential Python solvers below it.  The dispatch rule itself is
``resolve_backend``'s, pinned in ``tests/partition/test_auto_backend.py``;
these tests check the end-to-end agreement of the two kernels on real
systems.
"""

from __future__ import annotations

import pytest

from repro.engine import default_engine
from repro.explore import compose_eager, minimize_compositionally
from repro.generators.families import redundant_interleaving_system, token_ring_system
from repro.partition import generalized
from repro.protocols import build_scenario
from repro.utils.matrices import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy is not installed")


@needs_numpy
class TestBackendAgreement:
    """Force the vector path on small systems and require identical results."""

    @pytest.fixture(autouse=True)
    def tiny_threshold(self, monkeypatch):
        monkeypatch.setattr(generalized, "VECTOR_STATE_THRESHOLD", 1)

    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: redundant_interleaving_system(3),
            lambda: token_ring_system(3),
            lambda: build_scenario("two_phase_commit", n=2).system,
            lambda: build_scenario("quorum_voting", n=3).system,
        ],
    )
    def test_auto_and_python_quotients_agree(self, spec_factory):
        spec = spec_factory()
        sequential = minimize_compositionally(spec, backend="python")
        vectorized = minimize_compositionally(spec, backend="auto")
        assert vectorized.num_states == sequential.num_states
        assert vectorized.num_transitions == sequential.num_transitions
        verdict = default_engine().check(sequential, vectorized, "observational")
        assert verdict.equivalent

    def test_quotient_still_shrinks_the_eager_product(self):
        spec = redundant_interleaving_system(3)
        assert (
            minimize_compositionally(spec, backend="auto").num_states
            < compose_eager(spec).num_states
        )
