"""Seeded inputs for every workload, each pair with its known answer.

Everything here runs before any clock starts.  The answer of a pair comes
from its construction wherever the generator guarantees it:

* ``random_equivalent_copy`` clones states, so the copy is strongly (hence
  observationally, failure- and language-) equivalent to its source;
* ``with_snag`` plants a self-loop on a fresh action at a reachable
  accepting state, so the snagged side has a trace the other lacks and the
  pair is inequivalent under every notion measured here;
* a protocol scenario's implementation conforms to its spec and its mutant
  does not.

``perturb`` pairs are only "probably inequivalent"; their answer is computed
once here by the paper's direct route (naive refinement, python backend),
never by the route being timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.fsp import FSP
from repro.equivalence.language import language_equivalent
from repro.equivalence.observational import observationally_equivalent
from repro.equivalence.strong import strongly_equivalent
from repro.generators.families import (
    comb,
    shift_register,
    tau_diamond_tower,
    tau_ladder,
    tau_mesh,
    with_snag,
)
from repro.generators.random_fsp import (
    perturb,
    random_deterministic_fsp,
    random_equivalent_copy,
    random_fsp,
)
from repro.partition.generalized import Solver
from repro.utils.serialization import content_digest, to_dict

SNAG = "snag"

#: Breadth-first depth of the state a snag is planted on.
SNAG_DEPTH = 3


@dataclass(frozen=True)
class Case:
    """One cold check: two serialised operands, a notion and the known answer."""

    family: str
    notion: str
    left: dict[str, Any]
    right: dict[str, Any]
    equivalent: bool
    answer_from: str  # "construction" or "oracle"


@dataclass(frozen=True)
class Request:
    """One serving request: wire operands, a notion and the known answer."""

    kind: str  # "hot", "inline" or "scenario"
    left: Any
    right: Any
    notion: str
    equivalent: bool
    label: str


# ----------------------------------------------------------------------
# pair construction
# ----------------------------------------------------------------------
def _aligned(left: FSP, right: FSP) -> tuple[FSP, FSP]:
    alphabet = left.alphabet | right.alphabet
    return left.with_alphabet(alphabet), right.with_alphabet(alphabet)


def _snag_state(fsp: FSP, rng: random.Random) -> str:
    """A seeded reachable accepting state at breadth-first depth ``SNAG_DEPTH``, or nearest.

    A fixed depth keeps the witness for the snag equally deep on every seed,
    so an inequivalent check costs about the same whichever state is drawn.
    """
    depth_of = {fsp.start: 0}
    frontier = [fsp.start]
    while frontier:
        following = []
        for state in frontier:
            for _, target in sorted(fsp.transitions_from(state)):
                if target not in depth_of:
                    depth_of[target] = depth_of[state] + 1
                    following.append(target)
        frontier = following
    accepting = [state for state in depth_of if fsp.is_accepting(state)]
    depth = min({depth_of[state] for state in accepting}, key=lambda d: (abs(d - SNAG_DEPTH), d))
    return rng.choice(sorted(state for state in accepting if depth_of[state] == depth))


def equivalent_pair(fsp: FSP, rng: random.Random) -> tuple[FSP, FSP]:
    """``fsp`` against a copy with ~2% of its states duplicated."""
    copy = random_equivalent_copy(fsp, duplicates=max(2, fsp.num_states // 50), seed=rng)
    return _aligned(fsp, copy)


def snagged_pair(fsp: FSP, rng: random.Random) -> tuple[FSP, FSP]:
    """An equivalent pair whose right side is snagged at a reachable accepting state."""
    left, right = equivalent_pair(fsp, rng)
    return _aligned(left, with_snag(right, _snag_state(right, rng), SNAG))


def oracle_answer(left: FSP, right: FSP, notion: str) -> bool:
    """The paper's direct route on the disjoint union (naive refinement, python)."""
    union = left.disjoint_union(right)
    first, second = "L:" + left.start, "R:" + right.start
    if notion == "strong":
        return strongly_equivalent(union, first, second, method=Solver.NAIVE, backend="python")
    if notion == "observational":
        return observationally_equivalent(
            union, first, second, method=Solver.NAIVE, backend="python"
        )
    if notion == "language":
        return language_equivalent(union, first, second)
    raise ValueError(f"no oracle route for {notion!r}")


# ----------------------------------------------------------------------
# cold workloads
# ----------------------------------------------------------------------
#: cold_tau: tau-rich processes whose weak quotient is far below their size.
#: ``(family, factory, notions)``; each row yields one equivalent and one
#: snagged pair per notion.  tau_ladder(300) has 601 states and crosses the
#: 512-state ``auto`` threshold, so observational checks on it run the
#: vector kernel while failure and k-observational stay on python.
#:
#: The rows are sized so that the percentiles land inside groups of checks
#: of like cost rather than in the gaps between them: the three
#: tau_ladder(300) rows are the top third of a pass, their snagged pairs the
#: top sixth (p90); the tau_ladder(150) row is the middle third (p50);
#: tau_mesh and the random processes the bottom.
COLD_TAU = (
    ("tau_ladder(300)", lambda rng: tau_ladder(300), ("observational",)),
    ("tau_ladder(300)", lambda rng: tau_ladder(300), ("observational",)),
    ("tau_ladder(300)", lambda rng: tau_ladder(300), ("observational",)),
    ("tau_ladder(150)", lambda rng: tau_ladder(150), ("observational", "failure", "k-observational")),
    ("tau_mesh(225)", lambda rng: tau_mesh(225), ("observational",)),
    (
        "random_tau(150)",
        lambda rng: random_fsp(
            150, tau_probability=0.8, transition_density=1.5, all_accepting=True, seed=rng
        ),
        ("observational", "failure"),
    ),
)


def _random_tau_poor(rng: random.Random) -> FSP:
    return random_fsp(150, tau_probability=0.05, all_accepting=True, seed=rng)


def _random_det(rng: random.Random) -> FSP:
    return random_deterministic_fsp(300, seed=rng)


#: cold_flat: quotients close to the input size, little or no tau.  Strong
#: and language checks on tau-free processes; observational checks on
#: tau-poor ones and on tau_diamond_tower, whose dense tau does not shrink.
#: The two comb(1000) language rows, with the snagged shift register, are
#: the top quarter of a pass (p90); the middle is a run of strong and
#: observational checks of like cost (p50).
COLD_FLAT = (
    ("comb(1000)", lambda rng: comb(1000), ("language",)),
    ("comb(1000)", lambda rng: comb(1000), ("language",)),
    ("comb(100)", lambda rng: comb(100), ("strong",)),
    ("shift_register(9)", lambda rng: shift_register(9), ("strong", "language")),
    ("random_det(300)", _random_det, ("strong", "language")),
    ("random_tau_poor(150)", _random_tau_poor, ("observational",)),
    ("tau_diamond_tower(15)", lambda rng: tau_diamond_tower(15), ("observational",)),
)

#: cold_flat rows whose second inequivalent pair is a ``perturb`` of the
#: equivalent one, answered by :func:`oracle_answer`.
COLD_FLAT_PERTURBED = (
    ("random_det(300)", _random_det, "strong"),
    ("random_tau_poor(150)", _random_tau_poor, "observational"),
)


def _case(family: str, notion: str, pair: tuple[FSP, FSP], equivalent: bool, source: str) -> Case:
    left, right = pair
    return Case(family, notion, to_dict(left), to_dict(right), equivalent, source)


#: Distinct passes generated per run.  Each pass has the same rows, notions
#: and sizes with fresh random draws, so a run averages over several draws
#: of every random family instead of repeating one.
PASSES = 12


def cold_cases(workload: str, seed: int) -> list[list[Case]]:
    """``PASSES`` passes of ``cold_tau`` or ``cold_flat`` cases, each in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    return [_cold_pass(workload, rng) for _ in range(PASSES)]


def _cold_pass(workload: str, rng: random.Random) -> list[Case]:
    rows = {"cold_tau": COLD_TAU, "cold_flat": COLD_FLAT}[workload]
    cases: list[Case] = []
    for family, factory, notions in rows:
        for notion in notions:
            fsp = factory(rng)
            cases.append(_case(family, notion, equivalent_pair(fsp, rng), True, "construction"))
            cases.append(_case(family, notion, snagged_pair(fsp, rng), False, "construction"))
    if workload == "cold_flat":
        for family, factory, notion in COLD_FLAT_PERTURBED:
            left, right = equivalent_pair(factory(rng), rng)
            right = perturb(right, seed=rng)
            cases.append(
                _case(family, notion, (left, right), oracle_answer(left, right, notion), "oracle")
            )
    rng.shuffle(cases)
    return cases


# ----------------------------------------------------------------------
# serve_repeat
# ----------------------------------------------------------------------
#: One cold request in every COLD_EVERY requests; cold requests alternate
#: a fresh inline pair and a protocol scenario.
COLD_EVERY = 16

#: Hot-set bases: each yields a source, an equivalent copy and a snagged
#: copy (3 stored processes), checked under two notions -- 8 bases give 24
#: processes and 32 hot verdicts, inside the default per-shard caches
#: (64 processes / 1,024 verdicts).
HOT_BASES = 8
HOT_NOTIONS = ("strong", "observational")

#: Fresh inline pairs: 60 states, observational, answer by construction.
INLINE_STATES = 60

#: Scenario conformance checks, cycled in this order.  quorum_voting(5) with
#: its mutant is the one deterministic ~150 ms compute; it is half of the
#: scenario share, so about 1.6% of all requests, which puts the p99 inside it.
SCENARIOS = (
    ("quorum_voting", 5, "mutant"),
    ("quorum_voting", 4, "implementation"),
    ("quorum_voting", 5, "mutant"),
    ("two_phase_commit", 4, "mutant"),
)


def scenario_ref(name: str, n: int, side: str) -> dict[str, Any]:
    return {"scenario": {"name": name, "n": n, "side": side}}


def hot_set(seed: int) -> tuple[list[FSP], list[Request]]:
    """The processes to upload and the hot requests that reference them by digest."""
    rng = random.Random(f"serve_repeat:hot:{seed}")
    processes: list[FSP] = []
    requests: list[Request] = []
    for index in range(HOT_BASES):
        base = random_fsp(40, tau_probability=0.2, all_accepting=True, seed=rng)
        source, copy = equivalent_pair(base, rng)
        _, snagged = snagged_pair(base, rng)
        source, snagged = _aligned(source, snagged)
        copy = copy.with_alphabet(source.alphabet)
        digests = [content_digest(fsp) for fsp in (source, copy, snagged)]
        processes.extend((source, copy, snagged))
        for notion in HOT_NOTIONS:
            requests.append(Request("hot", digests[0], digests[1], notion, True, f"hot{index}"))
            requests.append(Request("hot", digests[0], digests[2], notion, False, f"hot{index}"))
    rng.shuffle(requests)
    return processes, requests


def inline_requests(seed: int, count: int) -> list[Request]:
    """``count`` fresh inline pairs, alternating equivalent and snagged."""
    rng = random.Random(f"serve_repeat:inline:{seed}")
    requests = []
    for index in range(count):
        base = random_fsp(INLINE_STATES, tau_probability=0.3, all_accepting=True, seed=rng)
        equivalent = index % 2 == 0
        left, right = (equivalent_pair if equivalent else snagged_pair)(base, rng)
        requests.append(
            Request(
                "inline",
                {"process": to_dict(left)},
                {"process": to_dict(right)},
                "observational",
                equivalent,
                "inline",
            )
        )
    return requests


def scenario_requests(seed: int) -> list[Request]:
    """The scenario cycle, rotated by the seed."""
    requests = [
        Request(
            "scenario",
            scenario_ref(name, n, "spec"),
            scenario_ref(name, n, side),
            "observational",
            side == "implementation",
            f"{name}({n}):{side}",
        )
        for name, n, side in SCENARIOS
    ]
    shift = random.Random(f"serve_repeat:scenario:{seed}").randrange(len(requests))
    return requests[shift:] + requests[:shift]
