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
  (:func:`repro.core.lts.disjoint_union`), once, with
  :func:`repro.engine.process.decide_pair`.  Each side is its cached
  quotient, or else the arcs its own refinement would start from: the
  interned kernel for strong, tau as a label, and the *saturated*
  branching pre-quotient for observational, whose arcs are the weak moves,
  so strong refinement of the union is Theorem 4.1(a) on the union of the
  operands.  The same refinement fills each side's missing quotient slot.
  The verdict compares the block ids of the two start states; the witness
  comes from integer refinement rounds over the union of the two quotients
  (:func:`repro.equivalence.hml.lts_distinguishing_formula`).
* Failure and ``k``-observational equivalence decide on the CSR union of
  the two cached saturated observational quotients, the union a weak
  witness is read off: observational equivalence refines both failure
  equivalence and every ``approx_k`` (``approx`` is the intersection of
  the decreasing ``approx_k`` chain; weak-bisimilar states have matching
  weak derivatives, hence equal refusal information).  The union's arcs
  are the weak moves ``=>^a``, and its ``=>^epsilon`` arcs give each
  state's closure (:func:`repro.core.weak.epsilon_closures`), so the
  subset search walks them directly, observing refusals and blocks met
  on integer ids.  A search bound (``max_macro_states``,
  ``max_subset_states``) limits that search, so it counts states of the
  search over the quotients, not over the operands.  A
  ``k``-observational witness is the observational one; a failure
  witness is read off the macrostates the failure search stopped at.
* Language equivalence runs Hopcroft-Karp on the fly over the two weak
  kernels (:func:`repro.equivalence.language.subset_search`); neither
  side is determinised or minimised beyond what the search visits.  The
  same search, over one table of the quotient union, decides failure and
  each ``approx_k`` round.

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
from repro.core.weak import epsilon_closures
from repro.engine.process import Process, decide_pair
from repro.engine.verdict import FormulaWitness, RefusalWitness, Witness, WordWitness
from repro.equivalence.failure import refusal_moves
from repro.equivalence.hml import lts_distinguishing_formula
from repro.equivalence.kobs import approx_blocks
from repro.equivalence.language import MacroMoves, Macrostate, subset_search
from repro.partition.generalized import Solver


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
#: stable refinement is unique, Section 3).  Kanellakis-Smolka is the
#: fastest python solver on every measured cold operand.
_HINT_DEFAULTS = {"method": Solver.KANELLAKIS_SMOLKA, "backend": "auto"}


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


def _weak_union(left: Process, right: Process) -> tuple[LTS, list[int], frozenset[str], int, int]:
    """The union of the two saturated observational quotients, ready for a subset search.

    Returns the union, the ``=>^epsilon`` closure of each of its states, the
    joint alphabet and the ids of the two start states.
    """
    left_quotient, right_quotient = left.observational_quotient(), right.observational_quotient()
    union, first, second = _quotient_union(left_quotient[0], right_quotient[0])
    return union, epsilon_closures(union), left.fsp.alphabet | right.fsp.alphabet, first, second


def _word_witness(found: tuple[tuple[str, ...], Macrostate, Macrostate]) -> WordWitness:
    """The word a language search stopped at, and the side that accepts it."""
    word, (_, in_left), _ = found
    return WordWitness(word, in_left=in_left)


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


def _check_pair(
    left: Process,
    right: Process,
    notion: str,
    method: Solver | str,
    backend: str,
    want_witness: bool,
) -> NotionResult:
    """Decide a strong or observational pair with one refinement; witness from the quotients."""
    left_quotient, right_quotient, equivalent = decide_pair(left, right, notion, method, backend)
    witness: Witness | None = None
    if want_witness and not equivalent:
        union = _quotient_union(left_quotient, right_quotient)
        witness = _formula_witness(*union, weak=notion == "observational")
    return NotionResult(
        equivalent,
        witness,
        {"left_min_states": left_quotient.n, "right_min_states": right_quotient.n},
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
        method: Solver | str = Solver.KANELLAKIS_SMOLKA,
        require_observable: bool = False,
        backend: str = "auto",
    ) -> NotionResult:
        if require_observable:
            require(left.fsp, ModelClass.OBSERVABLE, context="strong equivalence")
            require(right.fsp, ModelClass.OBSERVABLE, context="strong equivalence")
        return _check_pair(left, right, "strong", method, backend, want_witness)


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
        method: Solver | str = Solver.KANELLAKIS_SMOLKA,
        backend: str = "auto",
    ) -> NotionResult:
        return _check_pair(left, right, "observational", method, backend, want_witness)


class KObservationalNotion(Notion):
    """``k``-observational equivalence ``approx_k`` (Definition 2.2.1).

    Decided by the ``approx_k`` rounds of :mod:`repro.equivalence.kobs` on
    the union of the two cached saturated observational quotients.
    ``max_subset_states`` bounds the non-empty macrostates each comparison's
    subset search visits on either side, over the observational quotients,
    not over the operands.
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
        union, closure, alphabet, first, second = _weak_union(left, right)
        blocks = approx_blocks(union, closure, alphabet, k, max_subset_states)
        equivalent = blocks[first] == blocks[second]
        witness: Witness | None = None
        if want_witness and not equivalent:
            # approx refines every approx_k, so a level-k difference implies
            # observational inequivalence and a weak distinguishing formula
            # over the same union.
            witness = _formula_witness(union, first, second, weak=True)
        return NotionResult(equivalent, witness, {"k": k})


class LanguageNotion(Notion):
    """Language (weak-trace acceptance) equivalence -- the classical baseline.

    Decided by Hopcroft-Karp on the fly over the two weak kernels
    (:func:`repro.equivalence.language.subset_search`), stopping at the
    first word one side accepts and the other does not; the explored subset
    moves stay cached on each :class:`~repro.engine.process.Process`.
    ``max_states`` bounds the macrostates the search visits on either side.
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
        found = subset_search(left.macro_moves(), right.macro_moves(), (0, 0), max_states)
        if found is None:
            return NotionResult(True)
        return NotionResult(False, _word_witness(found) if want_witness else None)

    def decide_expressions(self, left_expr, right_expr) -> bool | None:
        from repro.expressions.regular import regular_equivalent

        return regular_equivalent(left_expr, right_expr)

    def expression_witness(self, left: FSP, right: FSP) -> Witness | None:
        found = subset_search(MacroMoves.from_fsp(left), MacroMoves.from_fsp(right), (0, 0))
        return None if found is None else _word_witness(found)


class FailureNotion(Notion):
    """Failure equivalence (Section 5 / Theorem 5.1) on the restricted model.

    Decided by one subset search over the :func:`~repro.equivalence.failure.refusal_moves`
    of the union of the two cached saturated observational quotients.
    ``max_macro_states`` bounds the non-empty macro-states the subset
    search visits on either side, over the observational quotients, not
    over the operands.
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
        union, closure, alphabet, first, second = _weak_union(left, right)
        moves = refusal_moves(union, closure, alphabet)
        starts = moves.start(first), moves.start(second)
        found = subset_search(moves, moves, starts, max_macro_states)
        if found is None:
            return NotionResult(True)
        witness = self._refusal_witness(moves.symbols, *found) if want_witness else None
        return NotionResult(False, witness)

    @staticmethod
    def _refusal_witness(
        symbols: tuple[str, ...],
        string: tuple[str, ...],
        left_macro: Macrostate,
        right_macro: Macrostate,
    ) -> RefusalWitness:
        """A one-sided failure pair from the macrostates the search stopped at."""
        (left_bits, left_max), (right_bits, right_max) = left_macro, right_macro
        if bool(left_bits) != bool(right_bits):
            # Only one side has a string-derivative: (string, {}) is a
            # failure of that side alone.
            return RefusalWitness(string, frozenset(), in_left=bool(left_bits))
        sides = ((left_max, right_max, True), (right_max, left_max, False))
        for refusals, others, in_left in sides:
            for refusal in refusals:
                if not any((refusal & other) == refusal for other in others):
                    names = frozenset(s for i, s in enumerate(symbols) if refusal >> i & 1)
                    return RefusalWitness(string, names, in_left=in_left)
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
