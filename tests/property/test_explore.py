"""Property tests: the on-the-fly routes agree with the eager ones.

Two cross-checks on random processes (the lazy products have their own
oracles in ``tests/explore/test_operator_oracle.py``):

* the on-the-fly verdict equals ``Engine.check`` on the materialised
  systems, for both notions;
* every verified trace reported on inequivalence replays as a genuine
  one-sided behaviour, and every ``TraceWitness`` holds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import default_engine
from repro.explore import check_implicit, verify_trace
from tests.property.strategies import fsp_strategy


@settings(max_examples=60, deadline=None)
@given(
    fsp_strategy(max_states=4, alphabet=("a", "b"), max_transitions=7),
    fsp_strategy(max_states=4, alphabet=("a", "b"), max_transitions=7),
    st.sampled_from(["strong", "observational"]),
)
def test_on_the_fly_verdict_matches_the_engine(left, right, notion):
    eager = default_engine().check(left, right, notion, align=True, witness=False).equivalent
    result = check_implicit(left, right, notion)
    assert result.equivalent == eager
    if result.trace is not None and result.trace_verified:
        verified, in_left = verify_trace(left, right, result.trace, notion)
        assert verified and in_left == result.trace_in_left


@settings(max_examples=40, deadline=None)
@given(
    fsp_strategy(max_states=4, alphabet=("a", "b"), max_transitions=7),
    fsp_strategy(max_states=4, alphabet=("a", "b"), max_transitions=7),
    st.sampled_from(["strong", "observational"]),
)
def test_engine_on_the_fly_witnesses_hold(left, right, notion):
    verdict = default_engine().check_on_the_fly(left, right, notion, witness=True)
    assert verdict.equivalent == (
        default_engine().check(left, right, notion, align=True, witness=False).equivalent
    )
    if verdict.witness is not None:
        assert verdict.witness.holds(left, right)
