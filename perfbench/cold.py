"""``cold_tau`` and ``cold_flat``: one fresh ``Engine`` per check, in-process.

Each check starts from the two operands' JSON documents
(``utils.serialization.from_dict``) and ends with the verdict, so a check
pays decode, interning, saturation, refinement, quotient and the pair
decision with its witness.  The loop is closed: one check at a time, whole
passes over the seeded case list until the measured time reaches the run
length and the tail percentile has 10 samples beyond it.

The traced run drives the same pipeline one stage at a time through the
``Process`` artifact methods, with each notion's own ``(method, backend)``,
so the final ``Engine.check`` reuses every artifact and its span holds only
the pair decision and witness.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from clock import UNITS, SpeedGauge, scaled_setups, start_kernel
from inputs import Case, cold_cases
from spans import SpanRecorder, percentile, samples_needed

from repro.engine import Engine
from repro.generators.families import tau_ladder
from repro.partition.generalized import Solver, resolve_backend
from repro.utils.serialization import from_dict, to_dict

#: Tail percentile reported as ``verdict_tail_ms`` on the cold workloads.
TAIL = 90

#: Extra notion parameters (k-observational compares to depth 2).
PARAMS: dict[str, dict[str, Any]] = {"k-observational": {"k": 2}}

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 9

#: What a library user pays before the first verdict: imports (numpy via the
#: vector kernel included), an Engine, and one tiny check per notion so the
#: lazily imported decision procedures are loaded.
_SETUP_PROBE = """
import json, sys, time
begin = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro.engine import Engine
from repro.partition import vectorized
from repro.utils.serialization import from_dict
doc = json.loads(sys.argv[2])
engine = Engine()
for notion in ("strong", "observational", "failure", "k-observational", "language"):
    engine.check(from_dict(doc), from_dict(doc), notion)
print(time.perf_counter() - begin)
"""


def setup_seconds(src: Path) -> tuple[float, float]:
    """Median over fresh interpreters of the import-to-ready time: (wall, reference) s."""
    doc = json.dumps(to_dict(tau_ladder(2)))
    command = [sys.executable, "-c", _SETUP_PROBE, str(src), doc]
    subprocess.run(command, check=True, capture_output=True)  # writes bytecode caches
    start_kernel()
    setups, starts = [], [start_kernel()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        setups.append(float(done.stdout))
        starts.append(start_kernel())
    return statistics.median(setups), statistics.median(scaled_setups(setups, starts))


def warm_up() -> None:
    """Load every lazily imported route in this process before the clock starts."""
    small = tau_ladder(3)
    engine = Engine()
    for notion in ("strong", "observational", "failure", "k-observational", "language"):
        engine.check(small, small, notion)
    for notion in ("strong", "observational"):
        Engine().check(small, small, notion, backend="vector")


class Verifier:
    """Checks verdicts against known answers; witnesses verified once per distinct witness."""

    def __init__(self) -> None:
        self.failed = 0
        self._witness_ok: dict[tuple[int, str], bool] = {}

    def check(self, case: Case, verdict) -> None:
        if verdict.equivalent != case.equivalent:
            self.failed += 1
            return
        if verdict.equivalent:
            return
        if verdict.witness is None:
            self.failed += 1
            return
        key = (id(case), verdict.witness.describe())
        if key not in self._witness_ok:
            self._witness_ok[key] = verdict.verify_witness() is True
        if not self._witness_ok[key]:
            self.failed += 1


def _check(case: Case):
    left, right = from_dict(case.left), from_dict(case.right)
    return Engine().check(left, right, case.notion, **PARAMS.get(case.notion, {}))


def run_untraced(
    passes: list[list[Case]], seconds: float, verifier: Verifier, gauge: SpeedGauge
) -> tuple[list[float], list[float]]:
    """Whole passes until ``seconds`` of measured check time.

    Returns the wall latencies and the reference latencies (s); the kernel
    runs once before every check.
    """
    latencies: list[float] = []
    marks: list[int] = []
    for cases in itertools.cycle(passes):
        for case in cases:
            marks.append(gauge.sample())
            begin = time.perf_counter()
            verdict = _check(case)
            latencies.append(time.perf_counter() - begin)
            verifier.check(case, verdict)
        if sum(latencies) >= seconds and len(latencies) >= samples_needed(TAIL):
            return latencies, [wall * gauge.scale(mark) for wall, mark in zip(latencies, marks)]


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _stage_backend(notion: str, num_states: int) -> str:
    """The backend a notion's quotient actually runs on.

    Strong and observational resolve ``auto`` by size; failure and
    k-observational call ``minimized_observational()`` with its python
    default.
    """
    requested = "python" if notion in ("failure", "k-observational") else "auto"
    return resolve_backend(requested, num_states)


def _operand_stages(rec: SpanRecorder, request: int, handle, notion: str, counts: dict) -> None:
    if notion == "language":
        with rec.span("automata.language_dfa", request):
            handle.language_dfa()
        return
    method = Solver.PAIGE_TARJAN
    backend = _stage_backend(notion, handle.num_states)
    with rec.span("core.intern", request):
        handle.lts()
    if notion == "strong":
        with rec.span("partition.refine", request, backend=backend):
            partition = handle.strong_partition(method, backend)
        with rec.span("equivalence.quotient", request):
            handle.minimized_strong(method, backend)
    else:
        with rec.span("core.saturate", request, backend=backend):
            saturated = handle.saturated_lts(backend)
        with rec.span("partition.refine", request, backend=backend):
            partition = handle.observational_partition(method, backend)
        with rec.span("equivalence.quotient", request):
            handle.minimized_observational(method, backend)
        counts["saturated_arcs"] += saturated.num_transitions
    counts["blocks"] += len(partition)
    counts["states"] += handle.num_states
    counts["refinements"] += 1
    counts["vector"] += backend == "vector"


def run_traced(
    passes: list[list[Case]],
    seconds: float,
    verifier: Verifier,
    rec: SpanRecorder,
    gauge: SpeedGauge,
) -> tuple[int, float, dict[str, int], list[float]]:
    """The staged pipeline under spans.

    Returns the checks made, their total reference time (s), the exact
    counts of the first pass and each check's share of wall time that no
    stage span covers.
    """
    counts = {"saturated_arcs": 0, "blocks": 0, "states": 0, "refinements": 0, "vector": 0}
    uncovered: list[float] = []
    checks = 0
    measured = reference = 0.0
    for cases in itertools.cycle(passes):
        if measured >= seconds and checks >= samples_needed(TAIL):
            break
        first_pass = checks == 0
        for case in cases:
            mark = gauge.sample()
            scratch = dict.fromkeys(counts, 0)
            with rec.span("check", checks, notion=case.notion, family=case.family) as root:
                with rec.span("utils.from_dict", checks):
                    left = from_dict(case.left)
                with rec.span("utils.from_dict", checks):
                    right = from_dict(case.right)
                engine = Engine()
                with rec.span("engine.process", checks):
                    handles = engine.process(left), engine.process(right)
                for handle in handles:
                    _operand_stages(rec, checks, handle, case.notion, scratch)
                with rec.span("equivalence.decide", checks):
                    verdict = engine.check(*handles, case.notion, **PARAMS.get(case.notion, {}))
                # The untraced check frees its engine and artifacts on return;
                # here that deallocation gets a span of its own.
                with rec.span("engine.release", checks):
                    del handle, handles, engine
            wall = root["end"] - root["start"]
            children = sum(
                span["end"] - span["start"]
                for span in rec.spans[root["id"] + 1 :]
                if span["parent"] == root["id"]
            )
            uncovered.append((wall - children) / wall)
            measured += wall
            reference += wall * gauge.scale(mark)
            checks += 1
            if first_pass:
                for key, value in scratch.items():
                    counts[key] += value
            verifier.check(case, verdict)
    return checks, reference, counts, uncovered


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, traced: bool, src: Path, out: Path) -> dict:
    """One invocation; returns the result document for ``run.py`` to print."""
    passes = cold_cases(workload, seed)
    cases = passes[0]
    # One CPU for the checks and the calibration kernel that scales them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_wall, setup = setup_seconds(src)
    warm_up()
    # The input documents are millions of GC-tracked lists; freezing them
    # keeps full collections during the timed phase from walking them.
    gc.collect()
    gc.freeze()
    verifier = Verifier()
    gauge = SpeedGauge()
    latencies, scaled = run_untraced(passes, seconds, verifier, gauge)
    wall = {
        "setup_s": setup_wall,
        "checks_per_s": len(latencies) / sum(latencies),
        "verdict_p50_ms": percentile(latencies, 50) * 1000,
        "verdict_tail_ms": percentile(latencies, TAIL) * 1000,
    }
    reference = {
        "setup_s": setup,
        "checks_per_s": len(scaled) / sum(scaled),
        "verdict_p50_ms": percentile(scaled, 50) * 1000,
        "verdict_tail_ms": percentile(scaled, TAIL) * 1000,
    }
    attempted = len(latencies)
    families = sorted({(case.family, case.notion) for case in cases})
    summary = [
        f"{workload}: {len(cases)} cases per pass over {len(families)} family/notion cells, "
        f"{sum(case.answer_from == 'oracle' for case in cases)} answered by the naive oracle",
        f"verdict_tail_ms is p{TAIL} over {len(latencies)} checks "
        f"({len(latencies) - int(len(latencies) * TAIL / 100)} beyond it)",
        f"calibration kernel {gauge.kernel_seconds * 1000:.3f} ms (mean of {len(gauge.samples)}); "
        + ", ".join(f"wall {name} = {value:.6g}" for name, value in wall.items()),
    ]
    if not traced:
        metrics = {name: (value, UNITS[name]) for name, value in reference.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return {"attempted": attempted, "failed": verifier.failed, "metrics": metrics,
                "summary": summary, "trace_ok": True}

    rec = SpanRecorder()
    traced_gauge = SpeedGauge()
    checks, traced_reference, counts, uncovered = run_traced(
        passes, seconds, verifier, rec, traced_gauge
    )
    rec.write_ndjson(out / f"trace-{workload}-seed{seed}.ndjson")
    per_check = {name: total * 1000 / checks for name, total in rec.self_time_by_name().items()}
    operands = sum(span["name"] == "utils.from_dict" for span in rec.spans)
    worst = max(uncovered)
    summary.append(
        f"traced {checks} checks; stage self times cover all but {worst:.2%} of the "
        f"worst check's wall time (limit 5%)"
    )
    metrics = {
        "utils.from_dict_ms": (per_check["utils.from_dict"] * checks / operands, "ms"),
        "core.intern_ms": (per_check.get("core.intern", 0.0), "ms"),
        "core.saturate_ms": (per_check.get("core.saturate", 0.0), "ms"),
        "core.saturated_arcs": (counts["saturated_arcs"], "count"),
        "partition.refine_ms": (per_check.get("partition.refine", 0.0), "ms"),
        "partition.quotient_ratio": (counts["blocks"] / max(1, counts["states"]), "ratio"),
        "partition.vector_share": (counts["vector"] / max(1, counts["refinements"]), "ratio"),
        "equivalence.quotient_ms": (per_check.get("equivalence.quotient", 0.0), "ms"),
        "equivalence.decide_ms": (per_check.get("equivalence.decide", 0.0), "ms"),
        "automata.language_dfa_ms": (per_check.get("automata.language_dfa", 0.0), "ms"),
        "engine.process_ms": (per_check.get("engine.process", 0.0), "ms"),
        "engine.release_ms": (per_check.get("engine.release", 0.0), "ms"),
        "trace.harness_ms": (per_check.get("check", 0.0), "ms"),
        "trace.overhead_ratio": (checks / traced_reference / reference["checks_per_s"], "ratio"),
        "machine.kernel_ms": (gauge.kernel_seconds * 1000, "ms"),
        **{f"wall.{name}": (value, UNITS[name]) for name, value in wall.items()},
    }
    return {"attempted": attempted + checks, "failed": verifier.failed, "metrics": metrics,
            "summary": summary, "trace_ok": worst <= 0.05}
