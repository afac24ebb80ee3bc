"""Unit tests for the flow-control primitives: deadlines and token buckets."""

import signal
import threading
import time

import pytest

from repro.service.flow import (
    DeadlineExceeded,
    TokenBucket,
    check_deadline,
    deadline_scope,
    remaining_seconds,
)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_remaining_seconds():
    assert remaining_seconds(None) is None
    assert remaining_seconds(time.monotonic() + 10) == pytest.approx(10, abs=0.5)
    assert remaining_seconds(time.monotonic() - 10) < 0


def test_check_deadline():
    check_deadline(None)
    check_deadline(time.monotonic() + 60)
    with pytest.raises(DeadlineExceeded):
        check_deadline(time.monotonic() - 0.001)


def test_deadline_scope_without_deadline_is_a_no_op():
    with deadline_scope(None):
        pass


def test_deadline_scope_rejects_an_already_expired_deadline_up_front():
    ran = False
    with pytest.raises(DeadlineExceeded):
        with deadline_scope(time.monotonic() - 1.0):
            ran = True
    assert ran is False


def test_deadline_scope_preempts_a_sleeping_block_on_the_main_thread():
    # SIGALRM interrupts time.sleep, so the block aborts near the deadline,
    # not after the full ten seconds.
    started = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        with deadline_scope(time.monotonic() + 0.2):
            time.sleep(10.0)
    assert time.monotonic() - started < 5.0


def test_deadline_scope_restores_state_for_the_next_scope():
    with pytest.raises(DeadlineExceeded):
        with deadline_scope(time.monotonic() + 0.05):
            time.sleep(2.0)
    # A follow-up scope with a comfortable deadline runs undisturbed, and no
    # stray timer fires after it exits.
    with deadline_scope(time.monotonic() + 60.0):
        pass
    time.sleep(0.1)


def _spin(seconds: float) -> None:
    until = time.monotonic() + seconds
    while time.monotonic() < until:
        pass


def test_deadline_scope_raises_again_after_a_swallowed_alarm():
    # Python discards an exception raised in a gc callback, __del__ or
    # weakref callback; the alarm that lands there must not be the last one.
    handler = signal.getsignal(signal.SIGALRM)
    swallowed = []
    with pytest.raises(DeadlineExceeded):
        with deadline_scope(time.monotonic() + 0.02):
            try:
                _spin(2.0)
            except DeadlineExceeded:
                swallowed.append(time.monotonic())
            _spin(2.0)
    assert swallowed, "the first alarm never arrived"
    assert time.monotonic() - swallowed[0] < 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_deadline_scope_off_the_main_thread_checks_at_the_edges():
    outcome: dict = {}

    def run() -> None:
        try:
            with deadline_scope(time.monotonic() + 0.05):
                time.sleep(0.2)  # past the deadline; caught by the exit check
        except DeadlineExceeded:
            outcome["raised"] = True

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=10)
    assert outcome.get("raised") is True


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------
def test_token_bucket_validates_its_parameters():
    with pytest.raises(ValueError):
        TokenBucket(0, 1)
    with pytest.raises(ValueError):
        TokenBucket(1, 0)


def test_token_bucket_drains_and_refills_against_a_fake_clock():
    now = [0.0]
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=lambda: now[0])
    # The burst drains token by token...
    for _ in range(4):
        assert bucket.try_acquire() == 0.0
    # ...then the next acquire reports a finite positive wait.
    wait = bucket.try_acquire()
    assert wait == pytest.approx(0.5)
    # Advancing the clock refills at `rate` tokens per second.
    now[0] = 1.0  # +2 tokens
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() > 0.0


def test_token_bucket_never_exceeds_burst():
    now = [0.0]
    bucket = TokenBucket(rate=10.0, burst=3.0, clock=lambda: now[0])
    now[0] = 100.0  # a long idle period must not bank more than `burst`
    assert bucket.available == pytest.approx(3.0)
    for _ in range(3):
        assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() > 0.0


def test_token_bucket_bulk_acquire_hint_is_bounded_by_burst():
    now = [0.0]
    bucket = TokenBucket(rate=1.0, burst=5.0, clock=lambda: now[0])
    # Asking for more than the burst can never fully succeed; the hint is
    # still finite (the shortfall against capacity, not against the ask).
    wait = bucket.try_acquire(100.0)
    assert 0.0 < wait <= 5.0
    # The failed acquire left the bucket untouched.
    assert bucket.available == pytest.approx(5.0)


def test_token_bucket_check_many_style_cost():
    now = [0.0]
    bucket = TokenBucket(rate=1.0, burst=10.0, clock=lambda: now[0])
    assert bucket.try_acquire(8.0) == 0.0
    assert bucket.try_acquire(8.0) > 0.0  # only 2 tokens left
    assert bucket.try_acquire(2.0) == 0.0
