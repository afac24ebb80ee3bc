"""Self-checks of the benchmark: determinism, input shape, failure without sources.

Run from the repository root with ``python -m pytest perfbench -q`` (about
four minutes; the traced runs boot the serving cluster).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402

COLD = ("cold_tau", "cold_flat")
EXACT = ("core.saturated_arcs", "partition.quotient_ratio", "explore.pairs_visited")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload: str, seed: int) -> dict:
    done = _run(workload, seed, trace=1)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", COLD + ("serve_repeat",))
def test_one_seed_repeats_exact_counts(workload):
    first, second = _result(workload, 5), _result(workload, 5)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name]
    leftovers = [path.name for path in (ROOT / ".perfbench").glob("serve-*")]
    assert leftovers == []


def _shape(case: inputs.Case) -> tuple:
    known = str(case.equivalent) if case.answer_from == "construction" else "oracle"
    return (case.family, case.notion, len(case.left["states"]), len(case.right["states"]), known)


@pytest.mark.parametrize("workload", COLD)
def test_cold_inputs_repeat_per_seed_and_keep_their_shape(workload):
    assert inputs.cold_cases(workload, 3) == inputs.cold_cases(workload, 3)
    one, other = inputs.cold_cases(workload, 3), inputs.cold_cases(workload, 4)
    assert one != other
    for first, second in zip(one, other):
        assert sorted(map(_shape, first)) == sorted(map(_shape, second))


def test_cold_verdicts_repeat_per_seed():
    import cold

    def verdicts():
        return [
            (verdict.equivalent, verdict.witness and verdict.witness.describe())
            for verdict in map(cold._check, inputs.cold_cases("cold_tau", 3)[0])
        ]

    assert verdicts() == verdicts()


def test_serve_inputs_repeat_per_seed_and_keep_their_shape():
    def shape(seed):
        processes, hot = inputs.hot_set(seed)
        inline = inputs.inline_requests(seed, 8)
        return (
            sorted(fsp.num_states for fsp in processes),
            sorted((r.notion, r.equivalent) for r in hot),
            [(r.notion, r.equivalent, len(r.left["process"]["states"])) for r in inline],
            sorted(r.label for r in inputs.scenario_requests(seed)),
        )

    assert inputs.hot_set(3) == inputs.hot_set(3)
    assert inputs.inline_requests(3, 8) == inputs.inline_requests(3, 8)
    assert inputs.hot_set(3) != inputs.hot_set(4)
    assert inputs.inline_requests(3, 8) != inputs.inline_requests(4, 8)
    assert shape(3) == shape(4)


def test_traffic_keeps_its_cold_share_on_every_seed():
    import serve

    for seed in (3, 4):
        _, hot = inputs.hot_set(seed)
        traffic = serve.Traffic(hot, inputs.inline_requests(seed, 4), inputs.scenario_requests(seed))
        kinds = [traffic.next().kind for _ in range(8 * inputs.COLD_EVERY)]
        assert kinds.count("inline") == kinds.count("scenario") == 4
        assert all(kind != "hot" for kind in kinds[inputs.COLD_EVERY - 1 :: inputs.COLD_EVERY])


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("cold_tau", 1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
