"""The co-action convention shared by every layer that speaks CCS actions.

CCS pairs each channel ``a`` with a complementary *co-action* (Milner's
``a-bar``), rendered here with a ``!`` suffix: the co-action of ``a`` is
``a!`` and vice versa.  Synchronisation in parallel composition happens
exactly between an action and its complement and produces the unobservable
``tau``.

The term layer (:mod:`repro.ccs.syntax`) and the state-machine operators
(the lazy products of :mod:`repro.explore.products`) both import this one
copy of the convention.

The helpers are deliberately tau-agnostic: neither ``tau`` spelling (the
term-level ``"tau"`` or the kernel-level ``"τ"``) is special-cased here, so
callers that must reject tau (the term calculus does) keep that check at
their own layer.
"""

from __future__ import annotations

#: Suffix marking a co-action (the "bar" of CCS): the co-action of ``a`` is ``a!``.
CO_SUFFIX = "!"


def co_action(action: str) -> str:
    """The complementary action: ``co_action("a") == "a!"`` and ``co_action("a!") == "a"``."""
    return action[:-1] if action.endswith(CO_SUFFIX) else action + CO_SUFFIX


def channel_of(action: str) -> str:
    """The channel name of an action or co-action (``channel_of("a!") == "a"``)."""
    return action[:-1] if action.endswith(CO_SUFFIX) else action


def is_co_action(action: str) -> bool:
    """Whether the action is a co-action (an output in the usual reading)."""
    return action.endswith(CO_SUFFIX)


def channel_closure(channels) -> frozenset[str]:
    """The set of actions touching any of ``channels``: each channel and its co-action.

    Restriction and hiding both internalise whole *channels*, which means
    removing or renaming the channel's action and co-action together; this
    helper builds that closed set once for both operators.
    """
    closed: set[str] = set()
    for channel in channels:
        closed.add(channel)
        closed.add(co_action(channel))
    return frozenset(closed)
