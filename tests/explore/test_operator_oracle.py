"""Independent oracles for the Section 6 operators of :mod:`repro.explore.products`.

The lazy products and wrappers are the library's only state-machine
implementation of CCS composition, interleaving, the synchronous product,
restriction, hiding and relabelling, so they are checked against semantics
that share none of their code:

* **CCS.**  A random all-accepting FSP becomes CCS definitions: one process
  name per state, bound to a sum of prefixes over its arcs (tau written
  ``tau``).  The term-level SOS rules of :mod:`repro.ccs.semantics` are a
  separate implementation of ``|``, ``\\`` and ``[f]``, so the materialised
  :class:`~repro.explore.products.LazyCCSProduct`, its restriction and its
  relabelling must be strongly equivalent to ``compile_to_fsp`` of the
  matching ``Parallel``, ``Restriction`` and ``Relabeling`` terms.  So must
  the interleaving product on alphabets with no complementary pair, where
  ``|`` never synchronises, and the hiding of ``L`` (read as
  ``(P | H) \\ L`` with ``H`` offering every action of ``L`` and its
  co-action forever).
* **sync.**  On all-accepting operands with tau moves, the synchronous
  product accepts exactly the strings both operands accept.
* **Extension modes.**  A hand-built pair whose accepting states differ:
  each product marks exactly the expected states under ``union`` and
  ``intersection``.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it via a workflow input).
"""

from __future__ import annotations

import os
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ccs.semantics import compile_to_fsp
from repro.ccs.syntax import (
    TAU_ACTION,
    Definitions,
    Nil,
    Parallel,
    Prefix,
    ProcessRef,
    Relabeling,
    Restriction,
    Sum,
)
from repro.core.actions import co_action
from repro.core.fsp import FSP, TAU, from_transitions
from repro.engine import Engine
from repro.equivalence.language import accepted_strings_upto
from repro.explore import (
    HideSpec,
    LazyCCSProduct,
    LazyInterleavingProduct,
    LazySynchronousProduct,
    LeafSpec,
    ProductSpec,
    RelabelSpec,
    RestrictSpec,
    build_implicit,
    materialize,
)

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def operand_strategy(draw, alphabet: tuple[str, ...]):
    """A random all-accepting FSP whose every state has one to three moves.

    Sparser processes rarely reach a state pair where the operators differ
    (a complementary pair to synchronise, say): a CCS product without its
    synchronisation tau failed the oracle on 3-12% of random pairs of
    :func:`~tests.property.strategies.fsp_strategy` shapes, and on about a
    third of these.
    """
    states = [f"s{index}" for index in range(draw(st.integers(min_value=1, max_value=3)))]
    move = st.tuples(st.sampled_from((*alphabet, TAU)), st.sampled_from(states))
    transitions = [
        (state, action, target)
        for state in states
        for action, target in draw(st.lists(move, min_size=1, max_size=3, unique=True))
    ]
    return from_transitions(transitions, start="s0", alphabet=alphabet, all_accepting=True)


#: operands whose actions have complements on the other side, with tau moves.
OPERAND = operand_strategy(("a", "a!", "b"))
#: operands with no complementary pair: CCS ``|`` only interleaves them.
PLAIN_OPERAND = operand_strategy(("a", "b"))
CHANNELS = st.frozensets(st.sampled_from(("a", "b")), min_size=1)
MAPPING = st.dictionaries(st.sampled_from(("a", "b")), st.sampled_from(("a", "b", "c")))


def fsp_term(fsp: FSP, prefix: str, definitions: Definitions) -> ProcessRef:
    """Bind one CCS process name per state of ``fsp``; the start state's name.

    Each state's name is bound to the sum of ``action.Target`` over its arcs
    (``0`` when it has none).  ``prefix`` keeps the names of different
    operands apart.
    """
    names = {state: f"{prefix}{index}" for index, state in enumerate(sorted(fsp.states))}
    for state, name in names.items():
        summands = [
            Prefix(TAU_ACTION if action == TAU else action, ProcessRef(names[target]))
            for action, target in sorted(fsp.transitions_from(state))
        ]
        definitions.define(name, reduce(Sum, summands) if summands else Nil())
    return ProcessRef(names[fsp.start])


def spec_term(spec, definitions: Definitions):
    """The CCS term of a composition tree over FSP leaves.

    ``ccs`` and ``interleave`` both become ``|``, which interleaves exactly
    when no action of one operand has its complement in the other; ``sync``
    has no CCS counterpart.
    """
    if isinstance(spec, LeafSpec):
        return fsp_term(spec.fsp, f"P{len(definitions.bindings)}S", definitions)
    if isinstance(spec, ProductSpec) and spec.op in ("ccs", "interleave"):
        return Parallel(spec_term(spec.left, definitions), spec_term(spec.right, definitions))
    if isinstance(spec, RestrictSpec):
        return Restriction(spec_term(spec.of, definitions), spec.channels)
    if isinstance(spec, RelabelSpec):
        mapping = tuple(sorted(spec.mapping.items()))
        return Relabeling(spec_term(spec.of, definitions), mapping)
    if isinstance(spec, HideSpec):
        hider = f"H{len(definitions.bindings)}"
        offers = [
            Prefix(action, ProcessRef(hider))
            for channel in sorted(spec.channels)
            for action in (channel, co_action(channel))
        ]
        definitions.define(hider, reduce(Sum, offers))
        inner = spec_term(spec.of, definitions)
        return Restriction(Parallel(inner, ProcessRef(hider)), spec.channels)
    raise ValueError(f"no CCS term for {spec!r}")


def assert_matches_the_term_semantics(spec) -> None:
    """The materialised lazy route is strongly equivalent to the compiled term."""
    definitions = Definitions()
    term = spec_term(spec, definitions)
    verdict = Engine().check(
        materialize(build_implicit(spec)),
        compile_to_fsp(term, definitions),
        "strong",
        align=True,
    )
    assert verdict.equivalent, verdict.witness


def _ccs(left: FSP, right: FSP) -> ProductSpec:
    return ProductSpec("ccs", LeafSpec(left), LeafSpec(right))


@given(OPERAND, OPERAND)
@ORACLE_SETTINGS
def test_ccs_product_matches_parallel_composition(left, right):
    assert_matches_the_term_semantics(_ccs(left, right))


@given(OPERAND, OPERAND, CHANNELS)
@ORACLE_SETTINGS
def test_restriction_matches_the_restriction_term(left, right, channels):
    assert_matches_the_term_semantics(RestrictSpec(_ccs(left, right), channels))


@given(OPERAND, OPERAND, MAPPING)
@ORACLE_SETTINGS
def test_relabeling_matches_the_relabeling_term(left, right, mapping):
    assert_matches_the_term_semantics(RelabelSpec(_ccs(left, right), mapping))


@given(OPERAND, OPERAND, CHANNELS)
@ORACLE_SETTINGS
def test_hiding_matches_synchronising_with_an_absorber(left, right, channels):
    assert_matches_the_term_semantics(HideSpec(_ccs(left, right), channels))


@given(PLAIN_OPERAND, PLAIN_OPERAND)
@ORACLE_SETTINGS
def test_interleaving_matches_parallel_composition_without_complements(left, right):
    assert_matches_the_term_semantics(ProductSpec("interleave", LeafSpec(left), LeafSpec(right)))


@given(PLAIN_OPERAND, PLAIN_OPERAND)
@ORACLE_SETTINGS
def test_synchronous_product_accepts_the_intersection_of_the_languages(left, right):
    product = materialize(LazySynchronousProduct(left, right))
    both = accepted_strings_upto(left, 4) & accepted_strings_upto(right, 4)
    assert accepted_strings_upto(product, 4) == both


#: the accepting product states of the pair below, per operator and mode.
EXPECTED_ACCEPTING = {
    LazyCCSProduct: {"union": {"(p0|q0)", "(p0|q1)", "(p1|q1)"}, "intersection": {"(p0|q1)"}},
    LazyInterleavingProduct: {
        "union": {"(p0|q0)", "(p0|q1)", "(p1|q1)"},
        "intersection": {"(p0|q1)"},
    },
    LazySynchronousProduct: {"union": {"(p0|q0)", "(p1|q1)"}, "intersection": set()},
}
DEFAULT_MODE = {
    LazyCCSProduct: "union",
    LazyInterleavingProduct: "union",
    LazySynchronousProduct: "intersection",
}


@pytest.mark.parametrize("product", list(EXPECTED_ACCEPTING), ids=lambda cls: cls.__name__)
def test_extension_modes_mark_exactly_the_expected_states(product):
    # only p0 accepts on the left and only q1 on the right
    left = from_transitions([("p0", "a", "p1")], start="p0", accepting=["p0"])
    right = from_transitions([("q0", "a", "q1")], start="q0", accepting=["q1"])
    for mode, expected in EXPECTED_ACCEPTING[product].items():
        assert materialize(product(left, right, mode)).accepting_states() == expected, mode
    default = EXPECTED_ACCEPTING[product][DEFAULT_MODE[product]]
    assert materialize(product(left, right)).accepting_states() == default
