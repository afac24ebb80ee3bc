"""Flow control for the service: request deadlines and client quotas.

Two production-posture primitives the server and shard workers share:

* **Deadlines.**  A request may carry ``deadline_ms``; the server converts
  it to an *absolute* monotonic instant and threads it through the job spec
  into the worker.  :func:`deadline_scope` enforces it cooperatively inside
  the worker process: an interval timer (``SIGALRM``) raises
  :class:`DeadlineExceeded` at the next Python bytecode once the deadline
  passes, so a long ``check`` aborts mid-refinement with a structured error
  instead of wedging its shard.  Worker processes are forked from the
  server, so ``time.monotonic()`` readings are comparable across the
  process boundary (both read the same system-wide clock).

* **Token buckets.**  :class:`TokenBucket` is the classic rate limiter
  (``rate`` tokens per second, capacity ``burst``): the server keeps one
  per client and answers ``overloaded`` -- with a ``retry_after_ms`` hint
  -- when a client outruns its quota, instead of letting one chatty client
  queue every shard solid.

Everything here is stdlib-only and process-local; the wire vocabulary for
the two rejection shapes lives in :mod:`repro.service.protocol`
(``DEADLINE_EXCEEDED`` / ``OVERLOADED``).
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "DeadlineExceeded",
    "TokenBucket",
    "check_deadline",
    "deadline_scope",
    "remaining_seconds",
]


class DeadlineExceeded(Exception):
    """Raised inside a worker when a job's deadline passes mid-computation."""


#: SIGALRM-based preemption needs an interval timer and must run on the main
#: thread of the process (signal delivery is a main-thread affair); both hold
#: in a ProcessPoolExecutor worker, which is where deadline_scope runs.
_HAVE_ITIMER = hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")

#: Set while a deadline_scope is active; the handler ignores stray alarms
#: delivered after a scope already disarmed (e.g. a timer that fired in the
#: narrow window between the job body finishing and the timer being cleared).
_ARMED = False

#: Once the deadline passes the timer keeps firing at this interval until
#: the scope exits.  Python discards an exception raised inside a gc
#: callback, ``__del__`` or weakref callback, so an alarm that lands there is
#: lost; the next one raises again.
_REARM_SECONDS = 0.05


def _on_alarm(signum, frame) -> None:
    if _ARMED:
        raise DeadlineExceeded("deadline expired")


def remaining_seconds(deadline: float | None) -> float | None:
    """Seconds until an absolute monotonic deadline (negative = expired)."""
    if deadline is None:
        return None
    return deadline - time.monotonic()


def check_deadline(deadline: float | None) -> None:
    """Checkpoint form: raise :class:`DeadlineExceeded` if already past."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded("deadline expired")


@contextmanager
def deadline_scope(deadline: float | None) -> Iterator[None]:
    """Run a block under an absolute monotonic deadline.

    Raises :class:`DeadlineExceeded` up front when the deadline has already
    passed (a job that sat out its deadline in the queue aborts without
    computing anything), and -- where ``SIGALRM`` is available and we are on
    the main thread -- preemptively from inside the block otherwise.  On
    platforms without interval timers the scope degrades to the entry/exit
    checkpoints of :func:`check_deadline`.
    """
    global _ARMED
    if deadline is None:
        yield
        return
    check_deadline(deadline)
    if not _HAVE_ITIMER or threading.current_thread() is not threading.main_thread():
        try:
            yield
        finally:
            check_deadline(deadline)
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    _ARMED = True
    signal.setitimer(
        signal.ITIMER_REAL, max(deadline - time.monotonic(), 1e-6), _REARM_SECONDS
    )
    try:
        yield
    finally:
        # An alarm landing before the flag clears would skip the disarm
        # below and leave the repeating timer and the handler behind.
        while True:
            try:
                _ARMED = False
                break
            except DeadlineExceeded:
                continue
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, capacity ``burst``.

    ``try_acquire(n)`` either takes ``n`` tokens and returns 0.0, or leaves
    the bucket untouched and returns the seconds until ``n`` tokens will
    have accumulated (the ``retry_after`` hint).  Refill is computed lazily
    from the monotonic clock, so an idle bucket costs nothing.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` now (returns 0.0) or report the wait in seconds."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            # Even a burst-sized request gets a finite hint: the shortfall
            # against the *capacity* bounds the wait a client should observe.
            shortfall = min(tokens, self.burst) - self._tokens
            return max(shortfall / self.rate, 1e-3)

    @property
    def available(self) -> float:
        """Current token count (after lazy refill); monitoring only."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens
