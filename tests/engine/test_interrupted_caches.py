"""Interrupted checks leave the process caches answering like a fresh engine.

A deadline (``flow.deadline_scope``) can preempt a check at any bytecode
boundary, including inside the fill of a :class:`~repro.engine.Process`
cache: the strong quotient, the saturated observational quotient, the
language macro-moves -- or of an FSP's own successor index, built on the
first query that needs it.  Each cache slot is written once with a finished
value, so an abort must leave either nothing or a complete value behind.
Each test aborts one fill partway -- by raising from an inner helper on its
first, second, middle or last call, or on the first, second, middle or last
line the fill executes (counted in a dry run), or by a short deadline --
and then asks the same engine every notion: each verdict must equal a fresh
engine's, and each witness verify.

A cold strong or observational pair refines the union of its two sides once
and then fills both slots, so ``_collapse`` call 2 of a cold pair is an abort
between that pair's two slot fills: the left slot is written, the right one
is not.  One row runs its checks on the vector kernel with a one-round
budget, so every refinement hands over to Kanellakis-Smolka, and aborts
inside that hand-over.
"""

from __future__ import annotations

import contextlib
import sys
import time

import pytest

from repro.core.fsp import FSP, TAU
from repro.engine import Engine
from repro.engine import process as process_module
from repro.equivalence.language import MacroMoves
from repro.generators.families import shift_register, with_snag
from repro.generators.random_fsp import random_equivalent_copy, random_fsp
from repro.partition import vectorized
from repro.partition.refinable import RefinablePartition
from repro.service import flow
from repro.utils.matrices import HAVE_NUMPY

NOTIONS = (
    ("strong", {}),
    ("observational", {}),
    ("language", {}),
    ("k-observational", {"k": 2}),
    ("failure", {}),
)


class Abort(Exception):
    """Raised by a patched helper to interrupt a cache fill."""


def _aligned(left, right):
    alphabet = left.alphabet | right.alphabet
    return left.with_alphabet(alphabet), right.with_alphabet(alphabet)


def _pairs():
    """An equivalent and an inequivalent pair of restricted processes with tau."""
    base = random_fsp(14, tau_probability=0.3, all_accepting=True, seed=7)
    copy = random_equivalent_copy(base, duplicates=4, seed=3)
    return [_aligned(base, copy), _aligned(base, with_snag(copy, copy.start))]


def _assert_answers_like_fresh(engine: Engine) -> None:
    for left, right in _pairs():
        for notion, params in NOTIONS:
            verdict = engine.check(left, right, notion, **params)
            fresh = Engine().check(left, right, notion, **params)
            assert verdict.equivalent == fresh.equivalent, notion
            if not verdict.equivalent:
                assert verdict.verify_witness() is True, notion


def _patch_calls(monkeypatch, owner, name: str, abort_at: int = 0) -> list[int]:
    """Count the calls of ``owner.name``, raising :class:`Abort` on call ``abort_at``."""
    original = getattr(owner, name)
    calls = [0]

    def patched(*args, **kwargs):
        calls[0] += 1
        if calls[0] == abort_at:
            raise Abort(f"{name} call {abort_at}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)
    return calls


def _check_pairs(engine: Engine, notion: str, **hints) -> bool:
    """Check both pairs under ``notion``; whether any check was aborted."""
    aborted = False
    for left, right in _pairs():
        try:
            engine.check(left, right, notion, **hints)
        except Abort:
            aborted = True
    return aborted


#: (cache being filled, notion whose check fills it, owner, helper name, hints)
FILLS = (
    ("strong quotient", "strong", RefinablePartition, "split_marked", {}),
    ("strong quotient", "strong", process_module, "_collapse", {}),
    ("observational quotient", "observational", process_module, "saturate_lts", {}),
    ("observational quotient", "observational", process_module, "_collapse", {}),
    pytest.param(
        "strong quotient (vector hand-over)",
        "strong",
        RefinablePartition,
        "split_marked",
        {"backend": "vector"},
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
    ),
    ("language macro-moves", "language", MacroMoves, "intern", {}),
)


@pytest.mark.parametrize("call", ("first", "second", "middle", "last"))
@pytest.mark.parametrize(("cache", "notion", "owner", "helper", "hints"), FILLS)
def test_abort_inside_a_cache_fill(monkeypatch, cache, notion, owner, helper, hints, call):
    if hints:
        monkeypatch.setattr(vectorized, "round_budget", lambda n: 1)
    with monkeypatch.context() as patch:
        calls = _patch_calls(patch, owner, helper)
        assert not _check_pairs(Engine(), notion, **hints)
    total = calls[0]
    assert total >= 2, f"{helper} ran {total} times while filling the {cache}"
    k = {"first": 1, "second": 2, "middle": total // 2 + 1, "last": total}[call]
    engine = Engine()
    with monkeypatch.context() as patch:
        _patch_calls(patch, owner, helper, abort_at=k)
        assert _check_pairs(engine, notion, **hints), f"{helper} call {k} of {total} did not abort"
    _assert_answers_like_fresh(engine)


@contextlib.contextmanager
def _abort_at_line(code, abort_at: int = 0):
    """Count the lines the first call of ``code`` executes; raise :class:`Abort` on ``abort_at``.

    A line boundary stands in for the bytecode boundary a deadline's alarm
    preempts at; counting lines makes the abort point deterministic.
    """
    lines = [0]
    calls = [0]

    def on_line(frame, event, arg):
        if event == "line":
            lines[0] += 1
            if lines[0] == abort_at:
                raise Abort(f"line {abort_at} of {code.co_name}")
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        calls[0] += 1
        return on_line if calls[0] == 1 else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield lines
    finally:
        sys.settrace(previous)


def _index_answers(fsp: FSP) -> tuple:
    """Every successor-index query on every state."""
    per_state = [
        (
            fsp.transitions_from(state),
            fsp.enabled_actions(state),
            fsp.reachable_states(state),
            [fsp.successors(state, action) for action in sorted(fsp.alphabet | {TAU})],
        )
        for state in sorted(fsp.states)
    ]
    return per_state, fsp.describe()


def _unverified_strong_verdict(engine: Engine):
    """Check both pairs in ``engine`` under every notion; return the inequivalent strong verdict.

    No check queries an operand's successor index: verifying this verdict's
    witness is the first query, and builds it.
    """
    for left, right in _pairs():
        for notion, params in NOTIONS:
            engine.check(left, right, notion, **params)
    left, right = _pairs()[1]
    return engine.check(left, right, "strong")


@pytest.mark.parametrize("call", ("first", "second", "middle", "last"))
def test_abort_inside_the_successor_index_fill(call):
    code = FSP._successor_index.__code__
    verdict = _unverified_strong_verdict(Engine())
    with _abort_at_line(code) as lines:
        assert verdict.verify_witness() is True
    total = lines[0]
    assert total >= 4, f"the successor index filled in {total} lines"
    k = {"first": 1, "second": 2, "middle": total // 2 + 1, "last": total}[call]
    engine = Engine()
    verdict = _unverified_strong_verdict(engine)
    with _abort_at_line(code, abort_at=k), pytest.raises(Abort):
        verdict.verify_witness()
    for operand in (verdict.left, verdict.right):
        fresh = FSP(
            operand.states,
            operand.start,
            operand.alphabet,
            operand.transitions,
            operand.variables,
            operand.extensions,
        )
        assert _index_answers(operand) == _index_answers(fresh)
    assert verdict.verify_witness() is True
    _assert_answers_like_fresh(engine)


def test_abort_by_deadline():
    left, right = _aligned(shift_register(9), with_snag(shift_register(9), "s5"))
    engine = Engine()
    aborted = 0
    for notion, params in NOTIONS[:3]:
        for seconds in (0.001, 0.004, 0.015):
            try:
                with flow.deadline_scope(time.monotonic() + seconds):
                    engine.check(left, right, notion, **params)
            except flow.DeadlineExceeded:
                aborted += 1
    assert aborted
    for notion, params in NOTIONS[:3]:
        verdict = engine.check(left, right, notion, **params)
        assert verdict.equivalent == Engine().check(left, right, notion, **params).equivalent
        assert verdict.verify_witness() is True
    _assert_answers_like_fresh(engine)
