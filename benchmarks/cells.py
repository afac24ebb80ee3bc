"""The benchmark cell registry: every measurement ``run_all.py`` makes, by layer.

A :class:`Cell` is a key (``solver|family|n``), a layer, its params and a
function that returns a metrics dict.  Each layer is a generator of cells
(:data:`LAYERS`); :data:`DEFAULT_LAYERS` is what ``run_all.py`` runs unless
told otherwise.  The gates over the metrics are rows of
``baseline_expectations.json``, evaluated by ``check_regression.py``.

Layers build their inputs lazily, and a cell made by :func:`compared`
reads the result of the first cell of its group, so a layer's cells must
run in the order they are yielded, each before the generator advances.

Timed work goes through :func:`best_of`, the one timing helper.
"""

from __future__ import annotations

import operator
import tempfile
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import bench_cluster_load
import bench_service
import bench_service_load
from seed_baseline import seed_kanellakis_smolka

from repro.automata.equivalence import nfa_equivalent
from repro.ccs.stdlib import (
    alternating_bit_protocol,
    compile_system,
    mutual_exclusion,
    two_place_buffer_impl,
)
from repro.core.classify import classify
from repro.core.derivatives import saturate, saturate_reference
from repro.core.lts import LTS
from repro.core.paper_figures import fig2_language_pair
from repro.core.weak import saturate_lts, tau_closure_bits
from repro.engine import Engine
from repro.equivalence.failure import (
    failure_equivalent,
    failure_equivalent_processes,
    tree_failure_equivalent,
)
from repro.equivalence.kobs import k_observational_equivalent_processes
from repro.equivalence.language import is_universal, language_equivalent, language_nfa
from repro.equivalence.minimize import minimize_observational, minimize_strong
from repro.equivalence.observational import (
    observational_partition,
    observationally_equivalent,
    observationally_equivalent_processes,
)
from repro.equivalence.strong import strongly_equivalent
from repro.explore import (
    build_implicit,
    check_implicit,
    compose_eager,
    minimize_compositionally,
    reachable_stats,
)
from repro.explore.reduce import REDUCTIONS, structural_state_estimate
from repro.expressions.ccs_equivalence import ccs_equivalent
from repro.expressions.semantics import representative_fsp
from repro.generators.expressions import (
    alternating_expression,
    random_star_expression,
    starred_unions,
)
from repro.generators.families import (
    binary_tree,
    comb,
    dining_philosophers_system,
    duplicated_chain,
    interleaved_cycles_pair,
    interleaved_cycles_product_size,
    milner_scheduler_system,
    nondeterministic_counter,
    redundant_interleaving_system,
    restricted_counter,
    shift_register,
    shift_register_csr,
    tau_diamond_tower,
    tau_ladder,
    tau_mesh,
    token_ring_pair,
    token_ring_system,
)
from repro.generators.random_fsp import (
    perturb,
    random_deterministic_fsp,
    random_equivalent_copy,
    random_fsp,
    random_observable_fsp,
    random_restricted_observable_fsp,
)
from repro.partition.generalized import GeneralizedPartitioningInstance, Solver, solve
from repro.partition.naive import naive_refinement_passes
from repro.partition.partition import Partition
from repro.partition.vectorized import vector_refine, vector_refine_csr
from repro.protocols import Crash, apply_fault, apply_faults, build_scenario, sweep_crashes
from repro.protocols.check import check_conformance, find_stuck
from repro.reductions.lemma42 import (
    decide_universality_via_lemma42,
    lemma42_transform,
    normalize_for_lemma42,
)
from repro.reductions.theorem41b import separating_pair, theorem41b_iterate
from repro.reductions.theorem41c import make_restricted
from repro.reductions.theorem51 import theorem51_transform
from repro.reductions.universality import (
    approx1_equals_trivial,
    approx2_equals_trivial_characterisation,
)
from repro.utils.matrices import HAVE_NUMPY, MmapCSR, require_numpy, weak_transition_matrices

#: A cell is timed until it has MIN_SAMPLES samples or its samples have
#: spent SAMPLE_BUDGET_SECONDS, and keeps the fastest.  One sample of a
#: millisecond cell swings 2-3x with the scheduler; a cell slower than the
#: budget is still timed once.
MIN_SAMPLES = 3
SAMPLE_BUDGET_SECONDS = 1.0

#: family name -> (process builder for ~n states, include_tau flag).  These are
#: the structured scaling families of the partition benchmarks: refinement
#: performs many rounds on them, which is exactly the regime the splitter
#: queue (and the paper) is about.
FAMILIES: dict[str, tuple] = {
    "duplicated_chain": (lambda n: duplicated_chain(max(1, n // 2), 2), False),
    "comb": (lambda n: comb(max(1, n // 2)), False),
    "tau_ladder": (lambda n: tau_ladder(max(1, n // 2)), True),
}

#: the naive O(nm) method is only run below this state count so that the
#: quick mode stays quick.
NAIVE_MAX_STATES = 900

#: tau-heavy families for the weak-equivalence (Theorem 4.1a) trajectory:
#: ``family -> (builder for ~n states, dict-route state cap)``.  The inputs
#: are sparse but their saturated relations are Theta(n^2) dense, so the
#: dict-saturation baseline route takes minutes above the cap (which is the
#: point of the kernel engine).  tau_ladder and tau_mesh keep dict cells at
#: n ~ 2000 because the committed weak-speedup floors are measured there;
#: tau_diamond_tower has no floor, so its dict route stops at the small
#: calibration size rather than spending ~90 s of every CI run re-measuring
#: a known-slow path.
WEAK_FAMILIES: dict[str, tuple] = {
    "tau_ladder": (lambda n: tau_ladder(max(1, n // 2)), 2500),
    "tau_mesh": (tau_mesh, 2500),
    "tau_diamond_tower": (lambda n: tau_diamond_tower(max(1, n // 3)), 500),
}

QUICK_SIZES = [400, 2000]
FULL_SIZES = [400, 1000, 2000, 4000]

#: ``shift_register`` tiers as ``bits`` (the family has ``2^bits`` states).
#: The vector layer keeps small tiers in every bench run; the scale layer
#: holds the 10^5 tier (where the python solvers are still timed next to the
#: kernel and the committed speedup floor is measured) and the 10^6 tier
#: (vector-only: the default python backend would take ~15 minutes there,
#: which is the point of the kernel).
VECTOR_QUICK_BITS = [12]
VECTOR_FULL_BITS = [12, 14]
VECTOR_SCALE_BITS = [17, 20]

#: the python solvers are only timed on shift_register up to this state count
#: (paige_tarjan already costs ~80 s at 2^17).
VECTOR_PY_MAX_N = 1 << 17

#: engine layer: 24 distinct (pair, notion) checks revisited 10x each, the
#: repeat profile of a server-side batch.  The committed speedup floor is
#: measured on this manifest (>= 100 repeated-process pairs).
ENGINE_CHECKS = 240

#: explore layer: scenario specs for the minimisation comparison (eager
#: route feasible).
MINIMIZE_FAMILIES = {
    "dining_philosophers": lambda: dining_philosophers_system(4),
    "token_ring": lambda: token_ring_system(6),
    "milner_scheduler": lambda: milner_scheduler_system(4),
    "redundant_interleaving": lambda: redundant_interleaving_system(3, 4, 3),
}

#: the large inequivalent family of the early-exit gate: six interleaved
#: 8-cycles (8^6 = 262144 reachable product states) with a local fault.
LARGE_LENGTHS = [8] * 6

#: small composed pairs on which the on-the-fly verdict must match the eager
#: engine route: (builder of (left_spec, right_spec), expected_equivalent).
SMALL_PAIRS = (
    (lambda: interleaved_cycles_pair([4, 3, 3]), False),
    (lambda: token_ring_pair(4), False),
    (lambda: (interleaved_cycles_pair([4, 3, 3])[0],) * 2, True),
)

#: protocol layer: conformance scenarios at n >= 5 validators.
CONFORMANCE_SCENARIOS = {
    "two_phase_commit": {"n": 5},
    "quorum_voting": {"n": 5, "f": 2},
}


@dataclass(frozen=True)
class Cell:
    key: str
    layer: str
    params: dict
    fn: Callable[[], dict]


def cell_key(solver: str, family: str, n: int) -> str:
    return f"{solver}|{family}|{n}"


def timed(fn: Callable) -> Callable[[], tuple[float, object]]:
    """A sample whose timed region is the whole call of ``fn``."""

    def sample():
        begin = time.perf_counter()
        result = fn()
        return time.perf_counter() - begin, result

    return sample


def best_of(sample: Callable[[], tuple[float, object]]) -> tuple[dict, object]:
    """The fastest of ``MIN_SAMPLES`` samples, or of those the budget allows.

    ``sample()`` returns ``(seconds, result)``; returns the ``seconds`` and
    ``samples`` metrics and the last sample's result.
    """
    times: list[float] = []
    while len(times) < MIN_SAMPLES and sum(times) < SAMPLE_BUDGET_SECONDS:
        seconds, result = sample()
        times.append(seconds)
    return {"seconds": round(min(times), 6), "samples": len(times)}, result


def timed_cell(layer, solver, family, n, fn, measure=None) -> Cell:
    """A cell timing ``fn``; ``measure`` reads extra metrics off its result."""

    def run() -> dict:
        metrics, result = best_of(timed(fn))
        return {**metrics, **(measure(result) if measure else {})}

    return Cell(cell_key(solver, family, n), layer, {}, run)


def compared(layer, family, n, routes, params=None, measure=None, same=operator.eq) -> list[Cell]:
    """One cell per route over one input; each route must reproduce the first's result.

    ``routes`` maps solver names to samples (see :func:`best_of`).  Every
    route after the first records ``agrees`` (``same(first result, its
    result)``) and ``speedup`` (the first route's seconds over its own), so
    the first route is the reference the others are measured against.
    """
    first: dict = {}

    def run(sample) -> dict:
        metrics, result = best_of(sample)
        metrics.update(measure(result) if measure else {})
        if first:
            metrics["agrees"] = bool(same(first["result"], result))
            metrics["speedup"] = round(first["seconds"] / metrics["seconds"], 2)
        else:
            first.update(result=result, seconds=metrics["seconds"])
        return metrics

    return [
        Cell(cell_key(solver, family, n), layer, params or {}, partial(run, sample))
        for solver, sample in routes.items()
    ]


def _blocks(partition) -> dict:
    return {"blocks": len(partition)}


def _equivalent_checks(answers) -> dict:
    return {"equivalent_checks": sum(answers)}


def _size(process) -> dict:
    return {"states": process.num_states, "transitions": process.num_transitions}


# ----------------------------------------------------------------------
# kernel and weak: the Lemma 3.1 / Theorem 3.1 and Theorem 4.1(a) pipelines
# ----------------------------------------------------------------------
def _pipeline(process, include_tau: bool, method: Solver):
    instance = GeneralizedPartitioningInstance.from_fsp(process, include_tau=include_tau)
    return solve(instance, method)


def kernel_cells(quick: bool) -> Iterator[Cell]:
    """The Lemma 3.1 pipeline (reduction + solver) per family x size, against the frozen seed."""
    for family, (builder, include_tau) in FAMILIES.items():
        for size in QUICK_SIZES if quick else FULL_SIZES:
            process = builder(size)
            seed = timed(partial(seed_kanellakis_smolka, process, include_tau))
            routes = {"seed_kanellakis_smolka": seed}
            methods = {
                "kanellakis_smolka": Solver.KANELLAKIS_SMOLKA,
                "paige_tarjan": Solver.PAIGE_TARJAN,
            }
            if process.num_states <= NAIVE_MAX_STATES:
                methods["naive"] = Solver.NAIVE
            for solver, method in methods.items():
                routes[solver] = timed(partial(_pipeline, process, include_tau, method))
            params = {"transitions": process.num_transitions}
            yield from compared("kernel", family, process.num_states, routes, params, _blocks)


def _dict_saturation_route(process):
    """The pre-kernel weak route: dict saturation, then the strong pipeline."""
    return _pipeline(saturate_reference(process), False, Solver.PAIGE_TARJAN)


def weak_cells(quick: bool) -> Iterator[Cell]:
    """Observational partitions: the kernel route against dict saturation."""
    for family, (builder, dict_cap) in WEAK_FAMILIES.items():
        for size in QUICK_SIZES if quick else FULL_SIZES:
            process = builder(size)
            routes = {}
            if process.num_states <= dict_cap:
                routes["dict_saturation"] = timed(partial(_dict_saturation_route, process))
            for solver, method in (
                ("weak_kernel_paige_tarjan", Solver.PAIGE_TARJAN),
                ("weak_kernel_kanellakis_smolka", Solver.KANELLAKIS_SMOLKA),
            ):
                routes[solver] = timed(partial(observational_partition, process, method=method))
            params = {"transitions": process.num_transitions}
            yield from compared("weak", family, process.num_states, routes, params, _blocks)


# ----------------------------------------------------------------------
# vector and scale: the numpy kernel on shift_register
# ----------------------------------------------------------------------
def _block_array(n: int, result):
    """A python partition over ``s0..s{n-1}`` or a kernel block array, renumbered canonically."""
    np = require_numpy()
    if isinstance(result, Partition):
        assignment = np.empty(n, dtype=np.int64)
        for index, block in enumerate(result):
            for name in block:
                assignment[int(name[1:])] = index
        result = assignment
    _, first_index, inverse = np.unique(result, return_index=True, return_inverse=True)
    rank = np.empty(len(first_index), dtype=np.int64)
    rank[np.argsort(first_index)] = np.arange(len(first_index), dtype=np.int64)
    return rank[inverse]


def _vector_blocks(n: int, result) -> dict:
    return {"blocks": int(_block_array(n, result).max()) + 1}


def _same_blocks(n: int, first, result) -> bool:
    return require_numpy().array_equal(_block_array(n, first), _block_array(n, result))


def _vector_in_memory(bits: int):
    return vector_refine_csr(*shift_register_csr(bits))


def shift_register_cells(layer: str, bits_list: list[int]) -> Iterator[Cell]:
    """The numpy kernel, in memory and memory-mapped, against the python solvers.

    The python solvers run up to ``VECTOR_PY_MAX_N`` states; paige_tarjan
    (the default python backend) comes first, so ``speedup`` on the
    ``vector`` cell is the kernel's gap to what ``solve(backend="python")``
    runs.  All routes must agree up to block renumbering.
    """
    if not HAVE_NUMPY:
        return
    for bits in bits_list:
        n = 1 << bits
        routes = {}
        if n <= VECTOR_PY_MAX_N:
            process = shift_register(bits)
            for solver, method in (
                ("paige_tarjan", Solver.PAIGE_TARJAN),
                ("kanellakis_smolka", Solver.KANELLAKIS_SMOLKA),
            ):
                routes[solver] = timed(partial(_pipeline, process, False, method))
        routes["vector"] = timed(partial(_vector_in_memory, bits))
        with tempfile.TemporaryDirectory(prefix="repro-bench-mmap-") as tmp:
            _, block_of = shift_register_csr(bits, mmap_dir=Path(tmp))
            store = MmapCSR.open(Path(tmp))
            routes["vector_mmap"] = timed(partial(vector_refine_csr, store, block_of))
            yield from compared(
                layer,
                "shift_register",
                n,
                routes,
                {"transitions": 2 * n},
                partial(_vector_blocks, n),
                partial(_same_blocks, n),
            )


# ----------------------------------------------------------------------
# engine: check_many on one cached engine against the cold free functions
# ----------------------------------------------------------------------
def engine_manifest() -> list[tuple]:
    """``ENGINE_CHECKS`` checks cycling over related pairs and notions.

    The pool holds four random bases, duplicated equivalent copies and
    perturbed near-misses.  The distinct (pair, notion) combinations are far
    fewer than the checks: the manifest revisits pairs the way a server-side
    batch does, which is the shape the verdict cache exists for.
    """
    distinct = []
    for seed in range(4):
        base = random_fsp(24, tau_probability=0.2, all_accepting=True, seed=seed)
        copy = random_equivalent_copy(base, duplicates=3, seed=seed + 100)
        near = perturb(base, seed=seed + 200)
        for notion in ("strong", "observational", "language"):
            distinct += [(base, copy, notion), (base, near, notion)]
    return [distinct[i % len(distinct)] for i in range(ENGINE_CHECKS)]


def _cold_check(first, second, notion: str) -> bool:
    """One check the pre-engine way: recompile everything for this pair."""
    if notion == "language":
        return nfa_equivalent(language_nfa(first), language_nfa(second))
    combined = first.disjoint_union(second)
    decide = strongly_equivalent if notion == "strong" else observationally_equivalent
    return decide(combined, "L:" + first.start, "R:" + second.start)


def cold_loop(manifest: list[tuple]) -> list[bool]:
    return [_cold_check(first, second, notion) for first, second, notion in manifest]


def warm_run(manifest: list[tuple]) -> list[bool]:
    result = Engine().check_many(manifest, witness=False, align=False)
    return [verdict.equivalent for verdict in result]


def engine_cells(quick: bool) -> Iterator[Cell]:
    manifest = engine_manifest()
    routes = {
        "cold_free_functions": timed(partial(cold_loop, manifest)),
        "engine_check_many": timed(partial(warm_run, manifest)),
    }
    params = {"transitions": sum(first.num_transitions for first, _second, _n in manifest)}
    yield from compared("engine", "engine_pool", ENGINE_CHECKS, routes, params, _equivalent_checks)


# ----------------------------------------------------------------------
# explore: early exits and compositional minimisation
# ----------------------------------------------------------------------
def _eager_minimize(spec):
    return minimize_observational(compose_eager(spec))


def _lazy_check(left_spec, right_spec, notion: str):
    return check_implicit(build_implicit(left_spec), build_implicit(right_spec), notion)


def _small_pairs_agree(notion: str) -> bool:
    """On-the-fly verdicts match the eager engine route on small composed pairs."""
    engine = Engine()
    for build, expected in SMALL_PAIRS:
        left_spec, right_spec = build()
        left, right = compose_eager(left_spec), compose_eager(right_spec)
        eager = engine.check(left, right, notion, align=True, witness=False).equivalent
        if eager != expected or _lazy_check(left_spec, right_spec, notion).equivalent != expected:
            return False
    return True


def _early_exit(notion: str, product_states: int) -> dict:
    left_spec, right_spec = interleaved_cycles_pair(LARGE_LENGTHS)
    metrics, result = best_of(timed(partial(_lazy_check, left_spec, right_spec, notion)))
    return {
        **metrics,
        "pairs_visited": result.pairs_visited,
        "visit_fraction": round(result.pairs_visited / product_states, 8),
        "trace_verified": not result.equivalent and result.trace_verified,
        "verdicts_agree": _small_pairs_agree(notion),
    }


def explore_cells(quick: bool) -> Iterator[Cell]:
    """Compositional vs eager minimisation, and the >= 10^5-state early exit.

    Compositional minimisation must be observationally equivalent to the
    eager route; the early exit must come with a replay-verified trace.
    """
    engine = Engine()

    def same(first, result) -> bool:
        return engine.check(first, result, "observational", align=True, witness=False).equivalent

    for family, build in MINIMIZE_FAMILIES.items():
        spec = build()
        eager = compose_eager(spec)
        routes = {
            "eager_minimize": timed(partial(_eager_minimize, spec)),
            "compositional_minimize": timed(partial(minimize_compositionally, spec)),
        }
        params = {"transitions": eager.num_transitions}
        yield from compared("explore", family, eager.num_states, routes, params, _size, same)
    product = interleaved_cycles_product_size(LARGE_LENGTHS)
    for notion in ("strong", "observational"):
        key = cell_key(f"on_the_fly_{notion}", "interleaved_cycles_fault", product)
        run = partial(_early_exit, notion, product)
        yield Cell(key, "explore", {"lengths": LARGE_LENGTHS}, run)


# ----------------------------------------------------------------------
# protocol and reduction: conformance, fault sweeps, deadlock search
# ----------------------------------------------------------------------
def _conformance(spec, system, states: int, **options) -> dict:
    """Timed conformance; ``visit_fraction`` is pairs visited over ``states``."""
    metrics, verdict = best_of(timed(partial(check_conformance, spec, system, **options)))
    pairs = verdict.stats.details["pairs_visited"]
    return {
        **metrics,
        "equivalent": verdict.equivalent,
        "pairs_visited": pairs,
        "visit_fraction": pairs / states,
    }


def _stuck(system, trace_ok: Callable, **options) -> dict:
    """Timed deadlock search; the deadlock's trace must pass ``trace_ok``."""
    metrics, report = best_of(timed(partial(find_stuck, system, **options)))
    found = report is not None and report.kind == "deadlock" and trace_ok(report.trace)
    explored = report.states_explored if report is not None else 0
    return {**metrics, "deadlock_found": found, "states_explored": explored}


def _fault_exit(spec, broken) -> dict:
    metrics, verdict = best_of(timed(partial(check_conformance, spec, broken)))
    details = verdict.stats.details
    verified = not verdict.equivalent and details.get("trace_verified", False)
    return {**metrics, "trace_verified": verified, "pairs_visited": details["pairs_visited"]}


def _sweep(scenario) -> dict:
    metrics, result = best_of(timed(partial(sweep_crashes, scenario)))
    return {
        **metrics,
        "confirmed": result.confirmed and result.breaks_at == scenario.f + 1,
        "pairs_visited": sum(point.pairs_visited for point in result.points),
    }


def protocol_cells(quick: bool) -> Iterator[Cell]:
    """Conformance at n = 5 on the fly, f + 1 faults caught, a crash wedge found."""
    for family, kwargs in CONFORMANCE_SCENARIOS.items():
        scenario = build_scenario(family, **kwargs)
        states = reachable_stats(build_implicit(scenario.system)).states
        run = partial(_conformance, scenario.spec, scenario.system, states)
        yield Cell(cell_key("protocol_conformance", family, states), "protocol", kwargs, run)
        broken = apply_faults(scenario.system, scenario.crash_slots[: scenario.f + 1])
        key = cell_key("protocol_fault_exit", family, scenario.f + 1)
        yield Cell(key, "protocol", kwargs, partial(_fault_exit, scenario.spec, broken))
        # the sweep checks 0 .. f + 1 crashes
        key = cell_key("protocol_crash_sweep", family, scenario.f + 2)
        yield Cell(key, "protocol", kwargs, partial(_sweep, scenario))
    scenario = build_scenario("two_phase_commit", n=5)
    crashed = apply_fault(scenario.system, Crash("coordinator", 0))
    # the key's n is the number of states the search explores
    report = find_stuck(crashed)
    explored = report.states_explored if report is not None else 0
    key = cell_key("protocol_deadlock_bfs", "two_phase_commit_crash", explored)
    run = partial(_stuck, crashed, lambda trace: "commit" not in trace)
    yield Cell(key, "protocol", {"n": 5}, run)


def _kind(report) -> str | None:
    return None if report is None else report.kind


def _same_verdict(first, verdict) -> bool:
    return first.equivalent == verdict.equivalent


def _pairs_visited(verdict) -> dict:
    return {"pairs_visited": verdict.stats.details["pairs_visited"]}


def _states_explored(report) -> dict:
    return {"states_explored": report.states_explored if report is not None else 0}


def reduction_cells(quick: bool) -> Iterator[Cell]:
    """quorum voting at n = 25 under reduction="full"; every mode against none at n = 5.

    At n = 25 the structural product has ~4.6 * 10^16 states; the game must
    visit a vanishing fraction of them, and the search must find the
    post-decide deadlock every run of the protocol ends in.
    """
    scenario = build_scenario("quorum_voting", n=25, f=12)
    estimate = structural_state_estimate(scenario.system)
    params = {"f": 12, "structural_states": estimate}
    conformance = partial(_conformance, scenario.spec, scenario.system, estimate, reduction="full")
    yield Cell("reduction_full_conformance|quorum_voting|25", "reduction", params, conformance)
    stuck = partial(_stuck, scenario.system, lambda trace: "decide" in trace, reduction="full")
    yield Cell("reduction_full_stuck|quorum_voting|25", "reduction", params, stuck)
    parity = build_scenario("quorum_voting", n=5, f=2)
    routes = {}
    for mode in REDUCTIONS:
        check = partial(check_conformance, parity.spec, parity.system, reduction=mode)
        routes[f"reduction_{mode}_conformance"] = timed(check)
    yield from compared(
        "reduction", "quorum_voting", 5, routes, {"f": 2}, _pairs_visited, _same_verdict
    )
    token_ring = build_scenario("token_passing", n=5).system
    crashed = apply_fault(token_ring, Crash("station", 2, at="wait"))
    routes = {}
    for mode in REDUCTIONS:
        routes[f"reduction_{mode}_stuck"] = timed(partial(find_stuck, crashed, reduction=mode))
    yield from compared(
        "reduction",
        "token_passing_crash",
        5,
        routes,
        measure=_states_explored,
        same=lambda first, report: _kind(first) == _kind(report),
    )


# ----------------------------------------------------------------------
# service, soak and cluster
# ----------------------------------------------------------------------
def service_cells(quick: bool) -> Iterator[Cell]:
    """The 500-check manifest on a fresh pool at 1 vs 4 shards (``bench_service``)."""
    checks = bench_service.DEFAULT_NUM_CHECKS
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as store_root:
        specs, workload = bench_service.build_workload(store_root)
        manifest = bench_service.build_manifest(specs, checks)
        run = partial(bench_service.run_manifest, store_root, manifest)
        routes = {"service_1_shard": partial(run, 1), "service_4_shards": partial(run, 4)}
        yield from compared(
            "service", bench_service.FAMILY, checks, routes, workload, _equivalent_checks
        )


def soak_cells(quick: bool) -> Iterator[Cell]:
    """The open-loop service soak; the full 10k requests run in every mode."""
    soak = bench_service_load
    key = cell_key(soak.SOLVER, soak.FAMILY, soak.DEFAULT_NUM_REQUESTS)
    yield Cell(key, "soak", soak.PARAMS, partial(soak.run_soak, soak.DEFAULT_NUM_REQUESTS))


def cluster_cells(quick: bool) -> Iterator[Cell]:
    """Three nodes vs one behind the coordinator, with a mid-run node kill."""
    cluster = bench_cluster_load
    key = cell_key(cluster.SOLVER, cluster.FAMILY, cluster.DEFAULT_NUM_REQUESTS)
    run = partial(cluster.run_cluster, cluster.DEFAULT_NUM_REQUESTS)
    yield Cell(key, "cluster", cluster.PARAMS, run)


# ----------------------------------------------------------------------
# experiments: the paper's E-series, ungated
# ----------------------------------------------------------------------
def _census(process) -> dict:
    """E14: how often each notion holds over the state pairs of one process."""
    states = sorted(process.states)
    counts = {"observational": 0, "failure": 0, "language": 0}
    for i, first in enumerate(states):
        for second in states[i + 1 :]:
            counts["observational"] += observationally_equivalent(process, first, second)
            counts["failure"] += failure_equivalent(process, first, second)
            counts["language"] += language_equivalent(process, first, second)
    return counts


def _collapse(process) -> int:
    """E14: state pairs where language and observational equivalence differ."""
    states = sorted(process.states)
    return sum(
        language_equivalent(process, p, q) != observationally_equivalent(process, p, q)
        for i, p in enumerate(states)
        for q in states[i + 1 :]
    )


def _renamed_pair(builder, size: int) -> tuple:
    return builder(size), builder(size).rename_states(prefix="o")


def _answer(value) -> dict:
    return {"answer": value}


def _transitions(process) -> dict:
    return {"transitions": process.num_transitions}


def _classes(classes) -> dict:
    return {"classes": len(classes)}


def _pair_states(pair) -> dict:
    return {"states": pair[0].num_states + pair[1].num_states}


def experiment_cells(quick: bool) -> Iterator[Cell]:
    """The E-series experiments and kernel micro-measurements, one timed cell each.

    They carry no gate: the measurement is the growth shape across sizes
    (exponential for the PSPACE-hard notions, polynomial for the partition
    routes), and the properties they exhibit are asserted by the tier-1
    tests.
    """
    cell = partial(timed_cell, "experiments")
    kobs = k_observational_equivalent_processes
    failure = failure_equivalent_processes
    for bits in (4, 6, 8):  # E8, E9, E11: determinisation doubles with every bit
        first, second = _renamed_pair(restricted_counter, bits)
        family = "restricted_counter"
        yield cell("approx_1", family, bits, partial(kobs, first, second, 1), _answer)
        decide = partial(observationally_equivalent_processes, first, second)
        yield cell("observational", family, bits, decide, _answer)
        decide = partial(approx2_equals_trivial_characterisation, first)
        yield cell("approx2_trivial", family, bits, decide, _answer)
        counter, family = nondeterministic_counter(bits), "nondeterministic_counter"
        decide = partial(approx1_equals_trivial, make_restricted(counter))
        yield cell("approx1_trivial", family, bits, decide, _answer)
        yield cell("universality", family, bits, partial(is_universal, counter), _answer)
        transform = partial(lemma42_transform, normalize_for_lemma42(counter))
        yield cell("lemma42_transform", family, bits, transform, _size)
    for bits in (3, 5):
        decide = partial(decide_universality_via_lemma42, nondeterministic_counter(bits))
        yield cell("universality_via_lemma42", "nondeterministic_counter", bits, decide, _answer)
    for level in (1, 2, 3):  # E8: the Theorem 4.1(b) gadget is polynomial in the level
        build = partial(theorem41b_iterate, *fig2_language_pair(), level)
        yield cell("theorem41b_iterate", "fig2_language_pair", level, build, _pair_states)
    for level in (1, 2):
        decide = partial(kobs, *separating_pair(level), level + 1)
        yield cell(f"approx_{level + 1}", "separating_pair", level, decide, _answer)
    for depth in (3, 5, 7):  # E12: failure equivalence, exponential in general, easy on trees
        counters = _renamed_pair(restricted_counter, depth)
        yield cell("failure", "restricted_counter", depth, partial(failure, *counters), _answer)
        trees = _renamed_pair(binary_tree, depth)
        yield cell("failure", "binary_tree", depth, partial(failure, *trees), _answer)
        fast = partial(tree_failure_equivalent, *trees)
        yield cell("failure_tree_fast_path", "binary_tree", depth, fast, _answer)
    for size in (20, 60):
        process = random_restricted_observable_fsp(size, transition_density=2.0, seed=size)
        transform = partial(theorem51_transform, process)
        yield cell("theorem51_transform", "random_restricted_observable", size, transform, _size)
    for size in (6, 10):  # E14: the inclusion chain, pair by pair
        process = random_restricted_observable_fsp(size, transition_density=1.6, seed=size)
        census = partial(_census, process)
        yield cell("inclusion_census", "random_restricted_observable", size, census, dict)
        collapse = partial(_collapse, random_deterministic_fsp(size, seed=size))
        yield cell("deterministic_collapse", "random_deterministic", size, collapse, _answer)
    for size in (20, 50):
        process = random_restricted_observable_fsp(size, transition_density=2.0, seed=size)
        partition = partial(observational_partition, process)
        family = "random_restricted_observable"
        yield cell("observational_partition", family, size, partition, _blocks)
    for size in (50, 200):  # E1: classification is a structural scan
        process = random_fsp(size, tau_probability=0.2, transition_density=2.0, seed=size)
        yield cell("classify", "random_fsp", size, partial(classify, process), _classes)
    for rungs in (10, 30, 60):  # E7: saturation, its matrix form, and the partition on top
        process = tau_ladder(rungs)
        yield cell("saturate", "tau_ladder", rungs, partial(saturate, process), _transitions)
        matrices = partial(weak_transition_matrices, process)
        yield cell("weak_transition_matrices", "tau_ladder", rungs, matrices)
        partition = partial(observational_partition, process)
        yield cell("observational_partition", "tau_ladder", rungs, partition, _blocks)
    for size in (15, 40):
        options = {"tau_probability": 0.25, "transition_density": 2.0, "all_accepting": True}
        base = random_fsp(size, seed=size, **options)
        others = {
            "equivalent": random_equivalent_copy(base, duplicates=size // 3, seed=size),
            "inequivalent": random_fsp(size, seed=size + 999, **options),
        }
        for relation, other in others.items():
            decide = partial(observationally_equivalent_processes, base, other)
            yield cell("observational_decision", relation, size, decide, _answer)
    for size in (30, 90):  # E6: Lemma 3.1 instances and the naive method's passes
        process = random_observable_fsp(size, transition_density=3.0, seed=size)
        build = partial(GeneralizedPartitioningInstance.from_fsp, process)
        yield cell("lemma31_instance", "random_observable", size, build)
        instance = GeneralizedPartitioningInstance.from_fsp(duplicated_chain(size, 2))
        passes = partial(naive_refinement_passes, instance)
        yield cell("naive_passes", "duplicated_chain", size, passes, _answer)
    for fanout in (2, 6, 12):
        process = random_observable_fsp(40, transition_density=float(fanout), seed=fanout * 40)
        refine = partial(solve, GeneralizedPartitioningInstance.from_fsp(process))
        yield cell("paige_tarjan", "fanout", fanout, partial(refine, Solver.PAIGE_TARJAN), _blocks)
    for size in (40, 120, 240):  # E5 on random inputs; the kernel layer has the structured ones
        process = random_observable_fsp(size, transition_density=2.5, seed=size // 2)
        refine = partial(solve, GeneralizedPartitioningInstance.from_fsp(process))
        for method in (Solver.NAIVE, Solver.KANELLAKIS_SMOLKA, Solver.PAIGE_TARJAN):
            yield cell(method.value, "random_observable", size, partial(refine, method), _blocks)
    for size in (8, 16, 32, 64):  # E4: Lemma 2.3.1, O(n) states and O(n^2) transitions
        expressions = {
            "random": random_star_expression(size, seed=size),
            "alternating": alternating_expression(size // 2),
            "starred_unions": starred_unions(size),
        }
        for family, expression in expressions.items():
            build = partial(representative_fsp, expression)
            yield cell("representative_fsp", family, size, build, _size)
    for size in (8, 16, 32):
        left = random_star_expression(size, seed=size)
        right = random_star_expression(size, seed=size + 1)
        for family, pair in (("random_pair", (left, right)), ("reflexive", (left, left))):
            yield cell("ccs_equivalent", family, size, partial(ccs_equivalent, *pair), _answer)
    systems = {  # minimisation of compiled CCS systems
        "two_place_buffer": partial(compile_system, two_place_buffer_impl()),
        "mutex_2": partial(compile_system, mutual_exclusion(2)),
        "mutex_3": partial(compile_system, mutual_exclusion(3)),
        "abp_lossy": partial(
            compile_system, alternating_bit_protocol(lossy=True), max_states=20_000
        ),
    }
    minimisers = {"strong": minimize_strong, "observational": minimize_observational}
    for family, build in systems.items():
        process = build()
        yield cell("compile_system", family, process.num_states, build, _size)
        for notion, minimise in minimisers.items():
            minimal = partial(minimise, process)
            yield cell(f"minimize_{notion}", family, process.num_states, minimal, _size)
    for size in (60, 150):  # the weak kernel's stages against the dict reference
        for family, (builder, _cap) in WEAK_FAMILIES.items():
            process = builder(size)
            lts = LTS.from_fsp(process, include_tau=True)
            yield cell("saturate_lts", family, lts.n, partial(saturate_lts, lts), _transitions)
            reference = partial(saturate_reference, process)
            yield cell("saturate_reference", family, lts.n, reference, _transitions)
        lts = LTS.from_fsp(tau_mesh(size), include_tau=True)
        yield cell("tau_closure_bits", "tau_mesh", lts.n, partial(tau_closure_bits, lts))
    if not HAVE_NUMPY:
        return
    for size in (60, 150):  # the packed-uint64 closure backend
        for family in ("tau_ladder", "tau_mesh"):
            lts = LTS.from_fsp(WEAK_FAMILIES[family][0](size), include_tau=True)
            vector = partial(saturate_lts, lts, backend="vector")
            yield cell("saturate_lts_vector", family, lts.n, vector, _transitions)
    for bits in (8, 11):  # solve(backend="vector") end to end, names included
        instance = GeneralizedPartitioningInstance.from_fsp(shift_register(bits))
        refine = partial(vector_refine, instance)
        yield cell("vector_refine", "shift_register", 1 << bits, refine, _blocks)


#: layer name -> generator of its cells, given the ``--quick`` flag.
LAYERS: dict[str, Callable[[bool], Iterator[Cell]]] = {
    "kernel": kernel_cells,
    "weak": weak_cells,
    "vector": lambda quick: shift_register_cells(
        "vector", VECTOR_QUICK_BITS if quick else VECTOR_FULL_BITS
    ),
    "engine": engine_cells,
    "explore": explore_cells,
    "protocol": protocol_cells,
    "reduction": reduction_cells,
    "service": service_cells,
    "scale": lambda quick: shift_register_cells("scale", VECTOR_SCALE_BITS),
    "soak": soak_cells,
    "cluster": cluster_cells,
    "experiments": experiment_cells,
}

#: the layers of a plain run, each with committed expected seconds.
DEFAULT_LAYERS = (
    "kernel",
    "weak",
    "vector",
    "engine",
    "explore",
    "protocol",
    "reduction",
    "service",
)
