"""The shared co-action convention (repro.core.actions)."""

from __future__ import annotations

import pytest

from repro.core.actions import CO_SUFFIX, channel_closure, channel_of, co_action, is_co_action
from repro.core.errors import ExpressionError


def test_co_action_toggles_the_suffix():
    assert co_action("a") == "a!"
    assert co_action("a!") == "a"
    assert co_action(co_action("chan")) == "chan"


def test_channel_and_co_action_predicates():
    assert channel_of("a!") == "a" and channel_of("a") == "a"
    assert is_co_action("a!") and not is_co_action("a")
    assert CO_SUFFIX == "!"


def test_channel_closure_includes_both_polarities():
    assert channel_closure(["a", "b!"]) == frozenset({"a", "a!", "b", "b!"})
    assert channel_closure([]) == frozenset()


def test_term_layer_delegates_but_keeps_its_tau_check():
    from repro.ccs import syntax

    assert syntax.co("a") == "a!"
    assert syntax.CO_SUFFIX is CO_SUFFIX
    with pytest.raises(ExpressionError, match="complement"):
        syntax.co("tau")


def test_state_machine_layer_shares_the_convention():
    from repro.explore import products

    assert products.co_action is co_action
    assert products.channel_closure is channel_closure
