"""The pluggable notion registry: one object per equivalence notion.

The paper studies a spectrum of equivalences over the same process model;
previously each lived in its own free function and the CLI / CCS layers kept
parallel hard-coded dicts mapping notion names to functions.  This module
replaces those dicts with a registry of :class:`Notion` objects.  A notion
knows

* how to *decide* equivalence of two cached :class:`~repro.engine.process.Process`
  handles, reusing their artifacts (quotients, language macro-moves, weak
  kernels) so repeated checks against the same process are cheap;
* how to produce a checkable :class:`~repro.engine.verdict.Witness` on
  inequivalence;
* which keyword parameters it accepts (``k``, solver ``method``, search
  bounds), so the engine can reject typos instead of silently ignoring them;
* how to adapt itself to the star-expression world (the CCS equivalence
  problem of Section 2.3).

Third parties register additional notions with :func:`register_notion`; the
CLI's ``--notion`` choices and the engine's dispatch both read the registry,
so a registered notion is immediately usable everywhere.

Soundness of the quotient fast paths: each notion decides on something
equivalent to its input, state by state at the start.

* Strong and observational equivalence refine one CSR disjoint union
  (:func:`repro.core.lts.disjoint_union`) of the two cached quotients of
  :mod:`repro.engine.process`: the strong quotients, tau as a label, and
  the *saturated* observational quotients, whose arcs are the weak moves,
  so strong refinement of their union is Theorem 4.1(a) on the union of
  the operands.  The verdict compares the block ids of the two start
  states; the witness comes from integer refinement rounds over the same
  union (:func:`repro.equivalence.hml.lts_distinguishing_formula`).
* Failure and ``k``-observational equivalence run their FSP deciders on the
  union of the two observational quotient FSPs: observational equivalence
  refines both failure equivalence and every ``approx_k`` (``approx`` is
  the intersection of the decreasing ``approx_k`` chain; weak-bisimilar
  states have matching weak derivatives, hence equal refusal information).
  A search bound (``max_macro_states``, ``max_subset_states``) limits that
  search, so it counts states of the search over the quotients, not over
  the operands.  A ``k``-observational witness is the observational one,
  read off the CSR union of the saturated quotients; a failure witness is
  read off the macro-states the failure search stopped at.
* Language equivalence runs Hopcroft-Karp on the fly over the two weak
  kernels (:func:`repro.equivalence.language.language_search`); neither
  side is determinised or minimised beyond what the search visits.

The property tests cross-check every route against the paper's direct
routes on random processes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.core.classify import ModelClass, require
from repro.core.fsp import FSP
from repro.core.lts import LTS, disjoint_union
from repro.core.weak import WeakKernel
from repro.engine.process import Process
from repro.engine.verdict import FormulaWitness, RefusalWitness, Witness, WordWitness
from repro.equivalence.failure import failure_search, maximal_refusals
from repro.equivalence.hml import lts_distinguishing_formula
from repro.equivalence.kobs import k_observational_equivalent
from repro.equivalence.language import language_nfa, language_search
from repro.partition.generalized import Solver, refine_lts

_LEFT = "L:"
_RIGHT = "R:"


@dataclass(frozen=True)
class NotionResult:
    """What a notion reports back to the engine for one pair."""

    equivalent: bool
    witness: Witness | None = None
    details: dict[str, Any] = field(default_factory=dict)


class Notion(ABC):
    """One equivalence notion, pluggable into the engine and the CLI.

    Subclasses set :attr:`name` (the registry key), optionally
    :attr:`aliases`, and :attr:`param_names` (accepted keyword parameters);
    they implement :meth:`check` over two cached process handles.  The
    expression hooks adapt the notion to the CCS equivalence problem:
    :meth:`prepare_expression_fsp` post-processes the representative FSP
    (e.g. the restricted reading failure semantics needs) and
    :meth:`decide_expressions` may answer directly from the expressions
    (language equivalence uses the regular-expression decision procedure).
    """

    name: str = ""
    aliases: tuple[str, ...] = ()
    description: str = ""
    #: keyword parameters accepted by :meth:`check` with their defaults.  The
    #: engine rejects unknown parameters and *canonicalises* the rest against
    #: these defaults before caching, so ``check(p, q, "failure")`` and
    #: ``check(p, q, "failure", max_macro_states=None)`` share one verdict.
    param_defaults: dict[str, Any] = {}
    #: the parameters among :attr:`param_defaults` that only choose how an
    #: artifact is computed, never the verdict; the verdict cache ignores them.
    hint_names: frozenset[str] = frozenset()
    #: whether expressions can be compared under this notion.
    supports_expressions: bool = True
    #: whether :meth:`check` can produce a witness on inequivalence.
    provides_witness: bool = True

    @property
    def param_names(self) -> frozenset[str]:
        return frozenset(self.param_defaults)

    @abstractmethod
    def check(
        self, left: Process, right: Process, want_witness: bool, **params: Any
    ) -> NotionResult:
        """Decide the notion for the start states of two aligned processes."""

    def normalize_params(self, params: dict[str, Any]) -> dict[str, Any]:
        """Canonicalise parameters (also used as part of the cache key)."""
        return params

    # -- star-expression hooks ------------------------------------------
    def prepare_expression_fsp(self, fsp: FSP) -> FSP:
        """Adapt a representative FSP to this notion's model class."""
        return fsp

    def decide_expressions(self, left_expr, right_expr) -> bool | None:
        """Decide directly on the expressions, or None to use the FSP route."""
        return None

    def expression_witness(self, left: FSP, right: FSP) -> Witness | None:
        """A witness for a :meth:`decide_expressions` inequivalence."""
        return None

    def __repr__(self) -> str:
        return f"<Notion {self.name!r}>"


#: the execution hints of the strong and observational notions and their
#: defaults: the solver and the backend of a missing quotient (the coarsest
#: stable refinement is unique, Section 3).
_HINT_DEFAULTS = {"method": Solver.PAIGE_TARJAN, "backend": "auto"}


def _normalize_method(params: dict[str, Any]) -> dict[str, Any]:
    method = params.get("method")
    if method is not None and not isinstance(method, Solver):
        params = dict(params)
        params["method"] = Solver(method)
    return params


def _quotient_union(left: LTS, right: LTS) -> tuple[LTS, int, int]:
    """The CSR disjoint union of two quotients and the ids of their start states."""
    union = disjoint_union(left, right)
    return union, union.start, left.n + right.start


def _formula_witness(union: LTS, first: int, second: int, weak: bool) -> Witness | None:
    """A least-depth HML formula separating two states of a quotient union.

    On the union of two saturated observational quotients (``weak=True``)
    the formula's diamonds are weak, and it separates every pair that
    ``approx`` separates -- hence every ``approx_k``-inequivalent pair too.
    """
    formula = lts_distinguishing_formula(union, first, second, weak)
    if formula is None:  # only when the two states are equivalent
        return None
    return FormulaWitness(formula, weak=weak)


def _decide_quotients(
    left: LTS,
    right: LTS,
    method: Solver,
    backend: str,
    want_witness: bool,
    weak: bool,
) -> NotionResult:
    """Refine the CSR union of two quotients once and compare the start blocks."""
    union, first, second = _quotient_union(left, right)
    blocks = refine_lts(union, method, backend)
    equivalent = blocks[first] == blocks[second]
    witness: Witness | None = None
    if want_witness and not equivalent:
        witness = _formula_witness(union, first, second, weak)
    return NotionResult(
        equivalent, witness, {"left_min_states": left.n, "right_min_states": right.n}
    )


class StrongNotion(Notion):
    """Strong equivalence ``~`` (Section 3 / Theorem 3.1)."""

    name = "strong"
    aliases = ("bisimulation",)
    description = "strong (bisimulation) equivalence; tau treated as a label"
    param_defaults = {**_HINT_DEFAULTS, "require_observable": False}
    hint_names = frozenset(_HINT_DEFAULTS)

    def normalize_params(self, params: dict[str, Any]) -> dict[str, Any]:
        return _normalize_method(params)

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        method: Solver | str = Solver.PAIGE_TARJAN,
        require_observable: bool = False,
        backend: str = "auto",
    ) -> NotionResult:
        if require_observable:
            require(left.fsp, ModelClass.OBSERVABLE, context="strong equivalence")
            require(right.fsp, ModelClass.OBSERVABLE, context="strong equivalence")
        left_quotient, _ = left.strong_quotient(method, backend)
        right_quotient, _ = right.strong_quotient(method, backend)
        return _decide_quotients(
            left_quotient, right_quotient, method, backend, want_witness, weak=False
        )


class ObservationalNotion(Notion):
    """Observational equivalence ``approx`` (Theorem 4.1(a))."""

    name = "observational"
    aliases = ("weak",)
    description = "observational (weak bisimulation) equivalence"
    param_defaults = dict(_HINT_DEFAULTS)
    hint_names = frozenset(_HINT_DEFAULTS)

    def normalize_params(self, params: dict[str, Any]) -> dict[str, Any]:
        return _normalize_method(params)

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        method: Solver | str = Solver.PAIGE_TARJAN,
        backend: str = "auto",
    ) -> NotionResult:
        left_quotient, _ = left.observational_quotient(method, backend)
        right_quotient, _ = right.observational_quotient(method, backend)
        return _decide_quotients(
            left_quotient, right_quotient, method, backend, want_witness, weak=True
        )


class KObservationalNotion(Notion):
    """``k``-observational equivalence ``approx_k`` (Definition 2.2.1).

    ``max_subset_states`` bounds the subset states of each language
    comparison over the observational quotients, not over the operands.
    """

    name = "k-observational"
    aliases = ("kobs",)
    description = "approx_k: weak-derivative matching down to depth k"
    param_defaults = {"k": 1, "max_subset_states": None}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        k: int = 1,
        max_subset_states: int | None = None,
    ) -> NotionResult:
        left_fsp = left.minimized_observational()
        right_fsp = right.minimized_observational()
        combined = left_fsp.disjoint_union(right_fsp)
        first, second = _LEFT + left_fsp.start, _RIGHT + right_fsp.start
        equivalent = k_observational_equivalent(
            combined, first, second, k, max_subset_states=max_subset_states
        )
        witness: Witness | None = None
        if want_witness and not equivalent:
            # approx refines every approx_k, so a level-k difference implies
            # observational inequivalence and a weak distinguishing formula,
            # read off the cached saturated quotients.
            left_quotient, _ = left.observational_quotient()
            right_quotient, _ = right.observational_quotient()
            union = _quotient_union(left_quotient, right_quotient)
            witness = _formula_witness(*union, weak=True)
        return NotionResult(equivalent, witness, {"k": k})


class LanguageNotion(Notion):
    """Language (weak-trace acceptance) equivalence -- the classical baseline.

    Decided by Hopcroft-Karp on the fly over the two weak kernels
    (:func:`repro.equivalence.language.language_search`), stopping at the
    first word one side accepts and the other does not; the explored subset
    moves stay cached on each :class:`~repro.engine.process.Process`.
    ``max_states`` bounds the macrostates the search reaches on either side.
    Because the search stops at the first difference, a bounded check of an
    inequivalent pair may answer even where full determinisation of a side
    would exceed the bound; a check that determinisation within the bound
    could answer never raises.
    """

    name = "language"
    aliases = ("trace",)
    description = "classical language equivalence of the weak-transition NFAs"
    param_defaults = {"max_states": None}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        max_states: int | None = None,
    ) -> NotionResult:
        found = language_search(left.macro_moves(), right.macro_moves(), max_states=max_states)
        if found is None:
            return NotionResult(True)
        word, in_left = found
        return NotionResult(False, WordWitness(word, in_left=in_left) if want_witness else None)

    def decide_expressions(self, left_expr, right_expr) -> bool | None:
        from repro.expressions.regular import regular_equivalent

        return regular_equivalent(left_expr, right_expr)

    def expression_witness(self, left: FSP, right: FSP) -> Witness | None:
        from repro.automata.equivalence import nfa_distinguishing_word

        left_nfa = language_nfa(left)
        word = nfa_distinguishing_word(left_nfa, language_nfa(right))
        if word is None:
            return None
        return WordWitness(word, in_left=left_nfa.accepts(word))


class FailureNotion(Notion):
    """Failure equivalence (Section 5 / Theorem 5.1) on the restricted model.

    ``max_macro_states`` bounds the macro-state pairs of the subset search
    over the observational quotients, not over the operands.
    """

    name = "failure"
    aliases = ("failures",)
    description = "failure-set equality (restricted model)"
    param_defaults = {"max_macro_states": None}

    def check(
        self,
        left: Process,
        right: Process,
        want_witness: bool,
        max_macro_states: int | None = None,
    ) -> NotionResult:
        require(left.fsp, ModelClass.RESTRICTED, context="failure equivalence")
        require(right.fsp, ModelClass.RESTRICTED, context="failure equivalence")
        # Observational equivalence refines failure equivalence, so the
        # observational quotients have the same failure sets.
        left_fsp = left.minimized_observational()
        right_fsp = right.minimized_observational()
        combined = left_fsp.disjoint_union(right_fsp)
        first, second = _LEFT + left_fsp.start, _RIGHT + right_fsp.start
        found = failure_search(combined, first, second, max_macro_states=max_macro_states)
        if found is None:
            return NotionResult(True)
        witness = self._refusal_witness(combined, *found) if want_witness else None
        return NotionResult(False, witness)

    @staticmethod
    def _refusal_witness(
        combined: FSP,
        string: tuple[str, ...],
        left_macro: frozenset[str],
        right_macro: frozenset[str],
        kernel: WeakKernel,
    ) -> RefusalWitness:
        """A one-sided failure pair from the macro-states the search stopped at."""
        if bool(left_macro) != bool(right_macro):
            # Only one side has a string-derivative: (string, {}) is a
            # failure of that side alone.
            return RefusalWitness(string, frozenset(), in_left=bool(left_macro))
        left_max = maximal_refusals(combined, left_macro, kernel)
        right_max = maximal_refusals(combined, right_macro, kernel)
        for refusal in left_max:
            if not any(refusal <= other for other in right_max):
                return RefusalWitness(string, refusal, in_left=True)
        for refusal in right_max:
            if not any(refusal <= other for other in left_max):
                return RefusalWitness(string, refusal, in_left=False)
        raise AssertionError(
            "distinguishing string does not separate the refusal information"
        )  # pragma: no cover - the search only returns separating strings

    def prepare_expression_fsp(self, fsp: FSP) -> FSP:
        """Read the representative FSP as a restricted process (all accepting).

        Failure equivalence is defined on the restricted model; marking every
        state accepting is the standard move the paper itself makes when it
        reads star expressions as restricted processes in Section 4.
        """
        return FSP(
            states=fsp.states,
            start=fsp.start,
            alphabet=fsp.alphabet,
            transitions=fsp.transitions,
            variables=fsp.variables | {"x"},
            extensions=set(fsp.extensions) | {(state, "x") for state in fsp.states},
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Notion] = {}
_ALIASES: dict[str, str] = {}


def register_notion(notion: Notion, replace: bool = False) -> Notion:
    """Add a notion to the registry (its name and aliases become lookup keys)."""
    if not notion.name:
        raise ValueError("a notion must have a non-empty name")
    if not replace and notion.name in _REGISTRY:
        raise ValueError(f"notion {notion.name!r} is already registered")
    _REGISTRY[notion.name] = notion
    for alias in notion.aliases:
        _ALIASES[alias] = notion.name
    return notion


def unregister_notion(name: str) -> None:
    """Remove a notion (used by tests and plugin teardown)."""
    notion = _REGISTRY.pop(name, None)
    if notion is not None:
        for alias in notion.aliases:
            _ALIASES.pop(alias, None)


def get_notion(name: str | Notion) -> Notion:
    """Look a notion up by name or alias; raises with the known names."""
    if isinstance(name, Notion):
        return name
    key = _ALIASES.get(name, name)
    notion = _REGISTRY.get(key)
    if notion is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown equivalence notion {name!r}; registered notions: {known}")
    return notion


def available_notions() -> tuple[str, ...]:
    """The registered notion names, sorted."""
    return tuple(sorted(_REGISTRY))


def expression_notions() -> tuple[str, ...]:
    """The registered notions applicable to star expressions, sorted."""
    return tuple(sorted(name for name, n in _REGISTRY.items() if n.supports_expressions))


for _notion in (
    StrongNotion(),
    ObservationalNotion(),
    KObservationalNotion(),
    LanguageNotion(),
    FailureNotion(),
):
    register_notion(_notion)
