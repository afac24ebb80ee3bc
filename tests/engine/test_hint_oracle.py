"""Differential oracle: the solver and the backend never change an answer.

A :class:`~repro.engine.process.Process` keeps one quotient per notion, so
the ``method`` and ``backend`` of the first check that needs it decide how
it is computed, and every later check reuses it.  That is sound only if no
hint changes what a check reports: for every solver and backend, a strong
or observational check on a fresh engine must give the verdict, witness
text and ``details`` of the check with default hints, and fill each
handle's quotient slot with the same bytes -- arrays, names, start,
``ext_sets`` and ``block_of``.  The coarsest stable refinement is unique
(Section 3), and quotient blocks are numbered and named by their members,
not by a solver's block ids.

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
from tests.engine.test_pair_route_oracle import quotient_slot
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


def _answer(pair, notion: str, **hints) -> tuple:
    """A fresh engine's verdict, witness text, details and both quotient slots."""
    engine = Engine()
    verdict = engine.check(*pair, notion, **hints)
    witness = verdict.witness.describe() if verdict.witness is not None else None
    slots = tuple(quotient_slot(engine.process(fsp), notion) for fsp in pair)
    return verdict.equivalent, witness, dict(verdict.stats.details), slots


@ORACLE_SETTINGS
@given(pair=weak_pair())
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("notion", ("strong", "observational"))
def test_hints_give_the_default_answer(notion, backend, pair):
    default = _answer(pair, notion)
    for method in Solver:
        assert _answer(pair, notion, method=method, backend=backend) == default, method
