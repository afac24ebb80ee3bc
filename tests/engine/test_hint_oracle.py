"""Differential oracle: the solver and the backend never change an answer.

A :class:`~repro.engine.process.Process` keeps one quotient per notion, so
the ``method`` and ``backend`` of the first check that needs it decide how
it is computed, and every later check reuses it.  That is sound only if no
hint changes what a check reports: for every solver and backend, a strong
or observational check on a fresh engine must give the verdict, witness
text and ``details`` of the check with default hints.  The coarsest stable
refinement is unique (Section 3), and quotient blocks are numbered and named
by their members, not by a solver's block ids.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine import Engine
from repro.partition.generalized import Solver
from repro.utils.matrices import HAVE_NUMPY
from tests.partition.test_branching_oracle import weak_pair

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = (
    "python",
    pytest.param("vector", marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")),
    "auto",
)


def _answer(verdict) -> tuple:
    witness = verdict.witness.describe() if verdict.witness is not None else None
    return verdict.equivalent, witness, dict(verdict.stats.details)


@ORACLE_SETTINGS
@given(pair=weak_pair())
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("notion", ("strong", "observational"))
def test_hints_give_the_default_answer(notion, backend, pair):
    left, right = pair
    default = _answer(Engine().check(left, right, notion))
    for method in Solver:
        verdict = Engine().check(left, right, notion, method=method, backend=backend)
        assert _answer(verdict) == default, method
