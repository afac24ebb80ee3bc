"""Differential oracle for the one-refinement pair route and the vector hand-over.

A strong or observational check refines the disjoint union of its two sides
once (:func:`repro.engine.process.decide_pair`): a side is its cached
quotient, or else the arcs its own refinement would start from.  Each
missing quotient slot is then filled from that side's slice of the union's
block ids.  A bug there is a wrong verdict, or a slot that answers later
checks, minimisations and partitions differently from a lone refinement.
So for pairs with nothing, the left side, the right side or both sides
cached beforehand:

* every slot a pair check fills equals, byte for byte, the slot a lone
  ``strong_quotient()`` or ``observational_quotient()`` fills on a fresh
  handle;
* every slot equals the collapse that reads the arcs of every member of a
  block (``_collapse`` reads only the first, which a stable partition
  allows);
* the verdict equals the naive solver's on the FSP disjoint union.

Failure and ``approx_k`` decide on the CSR union of the two cached saturated
observational quotients, each state closed by its ``=>^epsilon`` arcs.  So
for ``k = 1, 2, 3``:

* verdicts equal the free functions on the operands' FSP disjoint union,
  failure strings have the free function's (shortest) length, and every
  witness verifies;
* under bounds 1, 2, 3, 5 and 8, a check answers or raises exactly where
  the route it replaced does: the free function on the disjoint union of
  the two ``minimized_observational()`` FSPs.

The vector kernel behind ``refine_lts`` runs a bounded number of rounds and
hands the partition it reached to Kanellakis-Smolka.  With the round budget
patched to 0, 1 and 2, the answer must equal python Kanellakis-Smolka and the
naive solver from any initial partition, and the partition handed over must
be the one that many signature rounds reach, computed here from the
definition.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fsp import FSP
from repro.core.lts import LTS
from repro.core.weak import saturate_lts
from repro.engine import Engine, Process
from repro.engine import process as process_module
from repro.equivalence.failure import failure_distinguishing_string, failure_equivalent
from repro.equivalence.kobs import k_observational_equivalent
from repro.equivalence.observational import observationally_equivalent
from repro.equivalence.strong import strongly_equivalent
from repro.generators.families import comb, shift_register
from repro.generators.random_fsp import random_equivalent_copy, random_fsp
from repro.partition import generalized, vectorized
from repro.partition.generalized import Solver, refine_lts
from repro.utils.matrices import HAVE_NUMPY
from tests.equivalence.test_subset_oracle import BOUNDS, _answer
from tests.partition.test_branching_oracle import weak_fsp, weak_pair
from tests.property.strategies import mixed_fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy is not installed")

NOTIONS = ("strong", "observational")
LEVELS = (1, 2, 3)


def quotient_slot(handle: Process, notion: str) -> tuple:
    """A filled quotient slot: its arrays as bytes, names, start, ``ext_sets`` and ``block_of``."""
    lts, block_of = handle._quotients[notion]
    return (
        bytes(lts.fwd_offsets),
        bytes(lts.fwd_actions),
        bytes(lts.fwd_targets),
        lts.action_names,
        lts.state_names,
        lts.start,
        lts.ext_sets,
        tuple(block_of),
    )


def fill_alone(handle: Process, notion: str) -> None:
    getattr(handle, f"{notion}_quotient")()


def lone_slot(fsp: FSP, notion: str) -> tuple:
    handle = Process(fsp)
    fill_alone(handle, notion)
    return quotient_slot(handle, notion)


def naive_answer(left: FSP, right: FSP, notion: str) -> bool:
    """The paper's direct route with the naive solver on the disjoint union."""
    union = left.disjoint_union(right)
    decide = strongly_equivalent if notion == "strong" else observationally_equivalent
    return decide(union, "L:" + left.start, "R:" + right.start, method=Solver.NAIVE)


@st.composite
def mixed_pair(draw):
    """A mixed FSP against a strongly equivalent copy, itself restarted, or another one."""
    left = draw(mixed_fsp_strategy())
    kind = draw(st.sampled_from(("copy", "restart", "random")))
    if kind == "random":
        same_signature = mixed_fsp_strategy().filter(lambda fsp: fsp.variables == left.variables)
        return left, draw(same_signature)
    if kind == "copy":
        copy = random_equivalent_copy(left, draw(st.integers(1, 3)), draw(st.integers(0, 99)))
        states, start = copy.states, left.start
        transitions, extensions = copy.transitions, copy.extensions
    else:
        states, start = left.states, draw(st.sampled_from(sorted(left.states)))
        transitions, extensions = left.transitions, left.extensions
    right = FSP(states, start, left.alphabet, transitions, left.variables, extensions)
    return left, right


PAIRS = st.one_of(weak_pair(), mixed_pair())


# ----------------------------------------------------------------------
# the pair route
# ----------------------------------------------------------------------
@ORACLE_SETTINGS
@given(pair=PAIRS)
@pytest.mark.parametrize("cached", ("nothing", "left", "right", "both"))
@pytest.mark.parametrize("notion", NOTIONS)
def test_a_pair_check_fills_the_slots_a_lone_refinement_fills(notion, cached, pair):
    left, right = pair
    engine = Engine()
    for side, fsp in (("left", left), ("right", right)):
        if cached in (side, "both"):
            fill_alone(engine.process(fsp), notion)
    verdict = engine.check(left, right, notion)
    assert verdict.equivalent == naive_answer(left, right, notion)
    if not verdict.equivalent:
        assert verdict.verify_witness() is True
    for fsp in (left, right):
        assert quotient_slot(engine.process(fsp), notion) == lone_slot(fsp, notion)


def all_members_collapse(
    arcs: LTS, blocks: list[int], lifted: list[int], names: tuple[str, ...]
) -> tuple[LTS, list[int]]:
    """``_collapse`` reading every member's arcs: the image of all arcs, deduplicated.

    It needs no stability: a block's arcs are the union of its members'.
    """
    offsets, arc_actions, arc_targets = arcs.fwd_offsets, arcs.fwd_actions, arcs.fwd_targets
    seen = bytearray(arcs.n)
    seen[arcs.start] = 1
    stack = [arcs.start]
    while stack:
        s = stack.pop()
        for i in range(offsets[s], offsets[s + 1]):
            t = arc_targets[i]
            if not seen[t]:
                seen[t] = 1
                stack.append(t)
    number = [-1] * (max(blocks, default=-1) + 1)
    reachable = 0
    for s, block in enumerate(blocks):
        if seen[s] and number[block] < 0:
            number[block] = reachable
            reachable += 1
    count = reachable
    for block in blocks:
        if number[block] < 0:
            number[block] = count
            count += 1
    block_of = [number[block] for block in lifted]
    label = [""] * reachable
    for name, block in zip(names, block_of):
        if block < reachable and not label[block]:
            label[block] = f"[{name}]"
    ext_sets = [frozenset()] * reachable
    edges = set()
    for s in range(arcs.n):
        source = number[blocks[s]]
        if source < reachable:
            if arcs.ext_sets is not None:
                ext_sets[source] = arcs.ext_sets[s]
            edges.update(
                (source, arc_actions[i], number[blocks[arc_targets[i]]])
                for i in range(offsets[s], offsets[s + 1])
            )
    quotient = LTS(
        label,
        arcs.action_names,
        edges,
        start=number[blocks[arcs.start]],
        ext_sets=ext_sets,
        variables=arcs.variables,
        observable_alphabet=arcs.observable_alphabet,
    )
    return quotient, block_of


def collapsed(quotient: tuple[LTS, list[int]]) -> tuple:
    """A collapse's result as bytes and values, like :func:`quotient_slot`."""
    lts, block_of = quotient
    return (
        bytes(lts.fwd_offsets),
        bytes(lts.fwd_actions),
        bytes(lts.fwd_targets),
        lts.action_names,
        lts.state_names,
        lts.start,
        lts.ext_sets,
        lts.variables,
        lts.observable_alphabet,
        tuple(block_of),
    )


def collapse_compared(patch: pytest.MonkeyPatch) -> list[int]:
    """Patch ``_collapse`` to check each result against the oracle; returns the fills seen."""
    fills: list[int] = []
    original = process_module._collapse

    def compared(*args):
        quotient = original(*args)
        assert collapsed(quotient) == collapsed(all_members_collapse(*args))
        fills.append(args[0].n)
        return quotient

    patch.setattr(process_module, "_collapse", compared)
    return fills


@ORACLE_SETTINGS
@given(pair=PAIRS)
@pytest.mark.parametrize("cached", ("nothing", "left"))
@pytest.mark.parametrize("notion", NOTIONS)
def test_every_slot_equals_the_all_members_collapse(notion, cached, pair):
    """A stable partition's first member per block gives every block's arcs."""
    left, right = pair
    engine = Engine()
    with pytest.MonkeyPatch.context() as patch:
        fills = collapse_compared(patch)
        if cached == "left":
            fill_alone(engine.process(left), notion)
        engine.check(left, right, notion)
    assert len(fills) == (1 if left == right else 2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("notion", NOTIONS)
def test_duplicated_states_collapse_like_every_member(monkeypatch, notion, seed):
    """Copies of a state are bisimilar, so a member's arcs into them fold into one arc."""
    process = random_fsp(10, tau_probability=0.3, seed=seed)
    copy = random_equivalent_copy(process, duplicates=4, seed=seed)
    fills = collapse_compared(monkeypatch)
    assert Engine().check(process, copy, notion).equivalent
    assert len(fills) == 2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("notion", NOTIONS)
def test_a_process_checked_against_itself_fills_its_slot_once(monkeypatch, notion, seed):
    collapses = []
    original = process_module._collapse

    def counted(*args):
        collapses.append(args[0].n)
        return original(*args)

    monkeypatch.setattr(process_module, "_collapse", counted)
    process = random_fsp(12, tau_probability=0.3, seed=seed)
    engine = Engine()
    assert engine.check(process, process, notion).equivalent
    assert len(collapses) == 1
    assert quotient_slot(engine.process(process), notion) == lone_slot(process, notion)


# ----------------------------------------------------------------------
# failure and approx_k on the union of the saturated quotients
# ----------------------------------------------------------------------
def starts(left: FSP, right: FSP) -> tuple[FSP, str, str]:
    """The FSP disjoint union of two processes and the names of their start states."""
    return left.disjoint_union(right), "L:" + left.start, "R:" + right.start


def minimised_route(left: FSP, right: FSP, notion: str, k: int, bound: int) -> bool:
    """The route the engine replaced: the free function on the minimised FSPs' union."""
    union, first, second = starts(
        Process(left).minimized_observational(), Process(right).minimized_observational()
    )
    if notion == "failure":
        return failure_equivalent(union, first, second, max_macro_states=bound)
    return k_observational_equivalent(union, first, second, k, max_subset_states=bound)


@ORACLE_SETTINGS
@given(pair=weak_pair(all_accepting=True))
def test_failure_checks_equal_the_free_function(pair):
    left, right = pair
    expected = failure_distinguishing_string(*starts(left, right))
    verdict = Engine().check(left, right, "failure")
    assert verdict.equivalent == (expected is None)
    if not verdict.equivalent:
        assert len(verdict.witness.string) == len(expected)
        assert verdict.verify_witness() is True


@ORACLE_SETTINGS
@given(pair=PAIRS)
def test_k_observational_checks_equal_the_free_function(pair):
    left, right = pair
    engine = Engine()
    for k in LEVELS:
        verdict = engine.check(left, right, "k-observational", k=k)
        assert verdict.equivalent == k_observational_equivalent(*starts(left, right), k), k
        if not verdict.equivalent:
            assert verdict.verify_witness() is True


@ORACLE_SETTINGS
@given(data=st.data(), k=st.sampled_from(LEVELS), bound=st.sampled_from(BOUNDS))
@pytest.mark.parametrize("notion", ("failure", "k-observational"))
def test_bounded_checks_raise_exactly_where_the_minimised_route_does(notion, data, k, bound):
    left, right = data.draw(weak_pair(all_accepting=True) if notion == "failure" else PAIRS)
    if notion == "failure":
        params = {"max_macro_states": bound}
    else:
        params = {"k": k, "max_subset_states": bound}
    expected, answered = _answer(minimised_route, left, right, notion, k, bound)
    verdict, checked = _answer(Engine().check, left, right, notion, witness=False, **params)
    assert checked == answered
    if answered:
        assert verdict.equivalent == expected


# ----------------------------------------------------------------------
# the vector hand-over
# ----------------------------------------------------------------------
def canonical(blocks) -> tuple[int, ...]:
    """Block ids renumbered by first member, so equal partitions compare equal."""
    number: dict[int, int] = {}
    return tuple(number.setdefault(block, len(number)) for block in blocks)


def signature_rounds(lts: LTS, block_of: list[int], rounds: int) -> tuple[int, ...]:
    """The partition ``rounds`` signature rounds reach, from the definition.

    Each round splits every block by the set of ``(action, target block)``
    pairs of its states.
    """
    blocks = list(block_of)
    for _ in range(rounds):
        signatures: dict[tuple, int] = {}
        blocks = [
            signatures.setdefault(
                (
                    blocks[s],
                    frozenset(
                        (lts.fwd_actions[i], blocks[lts.fwd_targets[i]])
                        for i in range(lts.fwd_offsets[s], lts.fwd_offsets[s + 1])
                    ),
                ),
                len(signatures),
            )
            for s in range(lts.n)
        ]
    return canonical(blocks)


@st.composite
def kernel_with_initial(draw):
    """A strong or saturated kernel and an initial partition (``None``: by extension set)."""
    fsp = draw(st.one_of(weak_fsp(max_states=8), mixed_fsp_strategy()))
    lts = LTS.from_fsp(fsp)
    if draw(st.booleans()):
        lts = saturate_lts(lts)
    if draw(st.booleans()):
        return lts, None
    colours = draw(st.lists(st.integers(0, 2), min_size=lts.n, max_size=lts.n))
    block_of = list(canonical(colours))
    return lts, (block_of, max(block_of, default=-1) + 1)


class HandOver:
    """Spy on the vector kernel's hand-over: the initial partitions it passes on."""

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        self.partitions: list[tuple[int, ...]] = []
        original = vectorized.kanellakis_smolka_refine_lts

        def spy(lts, block_of, num_blocks):
            self.partitions.append(canonical(block_of))
            return original(lts, block_of, num_blocks)

        patch.setattr(vectorized, "kanellakis_smolka_refine_lts", spy)


@needs_numpy
@ORACLE_SETTINGS
@given(case=kernel_with_initial())
@pytest.mark.parametrize("budget", (0, 1, 2))
def test_the_hand_over_is_exact(budget, case):
    lts, initial = case
    start = initial[0] if initial is not None else lts.extension_block_ids()[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "round_budget", lambda n: budget)
        hand_over = HandOver(patch)
        vector = canonical(refine_lts(lts, backend="vector", initial=initial))
    python = canonical(refine_lts(lts, Solver.KANELLAKIS_SMOLKA, "python", initial=initial))
    naive = canonical(refine_lts(lts, Solver.NAIVE, "python", initial=initial))
    assert vector == python == naive
    reached = signature_rounds(lts, start, budget)
    if hand_over.partitions:
        assert hand_over.partitions == [reached]
    else:  # stable within the budget
        assert reached == vector


@needs_numpy
def test_a_deep_comb_hands_over_and_a_shift_register_does_not(monkeypatch):
    hand_over = HandOver(monkeypatch)
    deep = LTS.from_fsp(comb(300))
    wide = LTS.from_fsp(shift_register(10))
    for lts in (deep, wide):
        assert generalized.resolve_backend("auto", lts.n, lts.num_transitions) == "vector"
    for lts in (deep, wide):
        python = canonical(refine_lts(lts, Solver.KANELLAKIS_SMOLKA, "python"))
        assert canonical(refine_lts(lts, backend="auto")) == python
    assert len(hand_over.partitions) == 1
    assert len(hand_over.partitions[0]) == deep.n
