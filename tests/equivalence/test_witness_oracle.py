"""Differential oracle for witnesses built from integer refinement rounds.

Strong and observational witnesses come from round-synchronous signature
refinement over the CSR union of the two quotients
(:func:`repro.equivalence.hml.lts_distinguishing_formula`).  Each property
compares them with the ``simeq_k`` chain recomputed over name-keyed
partitions (``tests/equivalence/hml_oracle.py``):

* the witness verifies against the original pair;
* its modal depth equals the oracle's separation level, the least depth any
  distinguishing formula can have, both through the engine and through
  :func:`~repro.equivalence.hml.distinguishing_formula` on one process;
* ``chain(1000)`` against ``chain(1001)`` gets both witnesses from 1,001
  refinement rounds, in under a second when nothing traces the run.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.equivalence import hml
from repro.equivalence.hml import distinguishing_formula, modal_depth, satisfies
from repro.generators.families import chain
from tests.equivalence.hml_oracle import oracle_separation_level
from tests.property.strategies import fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NOTIONS = (("strong", False), ("observational", True))


@ORACLE_SETTINGS
@given(first=fsp_strategy(max_states=6), second=fsp_strategy(max_states=6))
@pytest.mark.parametrize(("notion", "weak"), NOTIONS)
def test_engine_witness_depth_is_the_separation_level(notion, weak, first, second):
    verdict = Engine().check(first, second, notion)
    union = first.disjoint_union(second)
    level = oracle_separation_level(union, "L:" + first.start, "R:" + second.start, weak)
    assert verdict.equivalent == (level is None)
    if level is not None:
        assert verdict.verify_witness() is True
        assert modal_depth(verdict.witness.formula) == level


@ORACLE_SETTINGS
@given(process=fsp_strategy(max_states=7, max_transitions=14), data=st.data())
@pytest.mark.parametrize("weak", (False, True))
def test_free_function_depth_is_the_separation_level(weak, process, data):
    states = sorted(process.states)
    first = data.draw(st.sampled_from(states))
    second = data.draw(st.sampled_from(states))
    formula = distinguishing_formula(process, first, second, weak=weak)
    level = oracle_separation_level(process, first, second, weak)
    if level is None:
        assert formula is None
        return
    assert modal_depth(formula) == level
    assert satisfies(process, first, formula)
    assert not satisfies(process, second, formula)


def _traced() -> bool:
    """Whether a tracer or a coverage monitor is slowing this interpreter down."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.gettrace() is not None or (
        monitoring is not None and monitoring.get_tool(monitoring.COVERAGE_ID) is not None
    )


@pytest.mark.parametrize(("notion", "weak"), NOTIONS)
def test_depth_1000_chain_witness_under_a_second(monkeypatch, notion, weak):
    left, right = chain(1000, all_accepting=False), chain(1001, all_accepting=False)
    rounds = []
    separating_rounds = hml._separating_rounds

    def counted(*args):
        levels = separating_rounds(*args)
        rounds.append(len(levels))
        return levels

    monkeypatch.setattr(hml, "_separating_rounds", counted)
    begin = time.perf_counter()
    verdict = Engine().check(left, right, notion, backend="python")
    engine_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    formula = distinguishing_formula(left.disjoint_union(right), "L:s0", "R:s0", weak=weak)
    free_seconds = time.perf_counter() - begin
    assert not verdict.equivalent
    assert verdict.verify_witness() is True
    assert modal_depth(verdict.witness.formula) == modal_depth(formula) == 1000
    # One block list per round, round 0 included: the search stops at the
    # first separating round, for the engine's witness and the free function's.
    assert rounds == [1001, 1001]
    if not _traced():
        assert engine_seconds < 1.0 and free_seconds < 1.0
