"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_tau --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer metric
(layers the workload does not load read 0), and writes the spans as NDJSON
under ``.perfbench/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Without the library's
sources next to this directory the run exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Each workload's module in this directory.
WORKLOADS = {"cold_tau": "cold", "cold_flat": "cold", "serve_repeat": "serve"}


def _declared_metrics(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the serving cluster is torn down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])

    declared = _declared_metrics(bool(args.trace))
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC, OUT)
    measured = result["metrics"]
    unknown = set(measured) - set(declared)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for name, unit in declared.items():
        value, measured_unit = measured.get(name, (0, unit))
        if measured_unit != unit:
            raise RuntimeError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for line in result["summary"]:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["trace_ok"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders sets and dicts, and with them refinement and
        # exploration: a fixed hash seed makes one input cost the same work on
        # every run, and the servers' pairs_visited repeat.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
