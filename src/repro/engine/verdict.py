"""Structured check results: :class:`Verdict`, stats, and checkable witnesses.

A bare boolean is a poor API for an equivalence checker: callers serving
heavy traffic want to know *how* the answer was produced (timings, cache
hits, artifact sizes) and, on inequivalence, *why* -- a certificate they can
re-check against the original processes without trusting the engine.  The
paper's machinery already produces three kinds of certificates:

* a Hennessy-Milner **distinguishing formula** satisfied by exactly one side
  (:func:`repro.equivalence.hml.lts_distinguishing_formula` on the union of
  the two quotients) for strong, observational and ``k``-observational
  inequivalence;
* a **distinguishing word** accepted by exactly one side's language
  (:func:`repro.equivalence.language.language_distinguishing_word`);
* a **refusal pair** ``(s, Z)`` in exactly one side's failure set
  (:func:`repro.equivalence.failure.failure_distinguishing_string`).

This module wires them into one place.  Every witness implements
:meth:`Witness.holds`, which re-evaluates the certificate against two FSPs
from first principles -- satisfaction for formulas, NFA acceptance for words,
weak-derivative refusal membership for failure pairs -- so a verdict can be
audited end to end (the property tests do exactly that).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.fsp import FSP
from repro.core.weak import WeakKernel
from repro.equivalence.hml import Formula, satisfies


# ----------------------------------------------------------------------
# witnesses
# ----------------------------------------------------------------------
class Witness(ABC):
    """A checkable certificate of inequivalence.

    ``holds(left, right)`` must re-derive the certificate's claim from the
    two processes alone: it returns True exactly when the certificate
    separates ``left.start`` from ``right.start`` in the stated direction.
    """

    @abstractmethod
    def holds(self, left: FSP, right: FSP) -> bool:
        """Re-check the certificate against two processes."""

    @abstractmethod
    def describe(self) -> str:
        """A one-line human-readable rendering."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class FormulaWitness(Witness):
    """An HML formula satisfied by the left start state but not the right.

    ``weak`` records whether the formula uses weak modalities (observational
    and ``k``-observational inequivalence) or strong ones.
    """

    formula: Formula
    weak: bool = False

    def holds(self, left: FSP, right: FSP) -> bool:
        return satisfies(left, left.start, self.formula) and not satisfies(
            right, right.start, self.formula
        )

    def describe(self) -> str:
        kind = "weak HML" if self.weak else "HML"
        return f"{kind} formula satisfied by left only: {self.formula}"


@dataclass(frozen=True)
class WordWitness(Witness):
    """An observable word in exactly one of the two weak languages.

    ``in_left`` records which side accepts the word.
    """

    word: tuple[str, ...]
    in_left: bool

    def holds(self, left: FSP, right: FSP) -> bool:
        from repro.equivalence.language import language_nfa

        left_accepts = language_nfa(left).accepts(self.word)
        right_accepts = language_nfa(right).accepts(self.word)
        return left_accepts != right_accepts and left_accepts == self.in_left

    def describe(self) -> str:
        side = "left" if self.in_left else "right"
        rendered = ".".join(self.word) if self.word else "ε"
        return f"word {rendered!r} accepted by the {side} process only"


@dataclass(frozen=True)
class TraceWitness(Witness):
    """An action sequence admitted by exactly one side.

    Produced by the on-the-fly route (:mod:`repro.explore`): the challenger's
    path through the bisimulation game, verified by macro-state replay as a
    genuine (strong or weak) trace of one side only.  ``weak`` selects the
    replay semantics; ``in_left`` names the side admitting the trace.
    """

    trace: tuple[str, ...]
    weak: bool
    in_left: bool

    def holds(self, left: FSP, right: FSP) -> bool:
        from repro.explore.onthefly import verify_trace

        verified, in_left = verify_trace(
            left, right, self.trace, "observational" if self.weak else "strong"
        )
        return verified and in_left == self.in_left

    def describe(self) -> str:
        side = "left" if self.in_left else "right"
        kind = "weak trace" if self.weak else "trace"
        rendered = ".".join(self.trace) if self.trace else "ε"
        return f"{kind} {rendered!r} witnesses extra behaviour of the {side} process"


@dataclass(frozen=True)
class RefusalWitness(Witness):
    """A failure pair ``(string, refusal)`` of exactly one side.

    The pair belongs to the failure set of the side named by ``in_left``: it
    has a weak ``string``-derivative that refuses every action in
    ``refusal``; the other side has no such derivative.  The empty refusal
    set covers the pure reachability case (one side has no
    ``string``-derivative at all).
    """

    string: tuple[str, ...]
    refusal: frozenset[str]
    in_left: bool

    def _has_pair(self, fsp: FSP) -> bool:
        kernel = WeakKernel.from_fsp(fsp)
        macro = kernel.string_derivatives(fsp.start, self.string)
        return any(self.refusal <= (fsp.alphabet - kernel.weak_initials(state)) for state in macro)

    def holds(self, left: FSP, right: FSP) -> bool:
        left_has = self._has_pair(left)
        right_has = self._has_pair(right)
        return left_has != right_has and left_has == self.in_left

    def describe(self) -> str:
        side = "left" if self.in_left else "right"
        rendered = ".".join(self.string) if self.string else "ε"
        refusal = "{" + ", ".join(sorted(self.refusal)) + "}"
        return f"failure ({rendered!r}, {refusal}) of the {side} process only"


# ----------------------------------------------------------------------
# stats and verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckStats:
    """How a verdict was produced: timings, input sizes, cache provenance."""

    notion: str
    seconds: float
    from_cache: bool
    left_states: int
    left_transitions: int
    right_states: int
    right_transitions: int
    details: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """The structured answer of one equivalence check.

    ``left`` / ``right`` are the (aligned) processes the check compared, kept
    so that :meth:`verify_witness` can re-check the certificate without any
    external state.  They are None when no eager process exists to store:
    the direct expression route with no witness materialised (see
    :meth:`~repro.engine.engine.Engine.check_expressions`) and the
    on-the-fly route's composed/implicit operands (see
    :meth:`~repro.engine.engine.Engine.check_on_the_fly`).  ``bool(verdict)``
    is the equivalence answer, so verdicts drop into boolean positions where
    the old free functions were used.
    """

    equivalent: bool
    notion: str
    left: FSP | None
    right: FSP | None
    witness: Witness | None
    stats: CheckStats

    def __bool__(self) -> bool:
        return self.equivalent

    def verify_witness(self) -> bool | None:
        """Re-check the witness against the stored processes.

        Returns None when there is nothing to verify (the processes are
        equivalent, or no witness was requested/available), otherwise the
        result of :meth:`Witness.holds`.
        """
        if self.witness is None or self.left is None or self.right is None:
            return None
        return self.witness.holds(self.left, self.right)

    def describe(self) -> str:
        answer = "equivalent" if self.equivalent else "NOT equivalent"
        line = f"{answer} under {self.notion} equivalence"
        if self.witness is not None:
            line += f" ({self.witness.describe()})"
        return line

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible rendering (used by the CLI ``batch`` command)."""
        return {
            "notion": self.notion,
            "equivalent": self.equivalent,
            "witness": self.witness.describe() if self.witness is not None else None,
            "seconds": round(self.stats.seconds, 6),
            "from_cache": self.stats.from_cache,
            "left_states": self.stats.left_states,
            "right_states": self.stats.right_states,
        }


def cached_copy(verdict: Verdict) -> Verdict:
    """The verdict to hand out on a cache hit: same answer, zero-cost stats."""
    return replace(verdict, stats=replace(verdict.stats, from_cache=True, seconds=0.0))


@dataclass(frozen=True)
class BatchResult:
    """The result of :meth:`repro.engine.Engine.check_many`."""

    verdicts: tuple[Verdict, ...]
    seconds: float

    def __iter__(self) -> Iterator[Verdict]:
        return iter(self.verdicts)

    def __len__(self) -> int:
        return len(self.verdicts)

    def __getitem__(self, index: int) -> Verdict:
        return self.verdicts[index]

    @property
    def num_equivalent(self) -> int:
        return sum(1 for verdict in self.verdicts if verdict.equivalent)

    @property
    def num_inequivalent(self) -> int:
        return len(self.verdicts) - self.num_equivalent

    @property
    def cache_hits(self) -> int:
        return sum(1 for verdict in self.verdicts if verdict.stats.from_cache)

    def summary(self) -> dict[str, Any]:
        return {
            "checks": len(self.verdicts),
            "equivalent": self.num_equivalent,
            "inequivalent": self.num_inequivalent,
            "cache_hits": self.cache_hits,
            "seconds": round(self.seconds, 6),
        }

    def to_dicts(self) -> list[dict[str, Any]]:
        return [verdict.to_dict() for verdict in self.verdicts]


def now() -> float:
    """The engine's clock (one place to patch in tests)."""
    return time.perf_counter()
