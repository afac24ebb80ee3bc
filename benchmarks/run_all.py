#!/usr/bin/env python3
"""Benchmark runner: run the registry's cells layer by layer into one JSON file.

Every cell of ``benchmarks/cells.py`` in the selected layers runs in order,
and ``BENCH_partition.json`` (or ``--output``) receives one record per cell::

    {"layer": "weak", "key": "solver|family|n", "params": {...}, "metrics": {...}}

plus ``meta.layers``, the layers that ran.  ``benchmarks/check_regression.py``
gates the file: a layer's gate rows and expected seconds apply exactly when
that layer ran.

Usage::

    python benchmarks/run_all.py --quick                 # CI bench lane: the default layers
    python benchmarks/run_all.py                         # full sizes
    python benchmarks/run_all.py --layers scale          # 10^5/10^6-state vector tiers
    python benchmarks/run_all.py --layers soak           # open-loop service soak
    python benchmarks/run_all.py --layers cluster        # 3-node cluster load
    python benchmarks/run_all.py --layers experiments    # the paper's E-series, ungated

``--quick`` shrinks the kernel, weak and vector sizes; every cell is timed
until it has 3 samples or has spent 1 s in either mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from cells import DEFAULT_LAYERS, LAYERS  # noqa: E402
from check_regression import metrics_text  # noqa: E402


def _layers(text: str) -> list[str]:
    names = [name for name in text.split(",") if name]
    unknown = sorted(set(names) - set(LAYERS))
    if unknown or not names:
        raise argparse.ArgumentTypeError(f"unknown layers {unknown}; choose from {list(LAYERS)}")
    return names


def run(layers: list[str], quick: bool) -> list[dict]:
    """Every cell of ``layers``, in order; returns the records."""
    records = []
    for layer in layers:
        print(f"{layer}:", flush=True)
        for cell in LAYERS[layer](quick):
            metrics = cell.fn()
            seconds = f"{metrics['seconds']:.4f}s x{metrics.get('samples', 1)}"
            print(f"  {cell.key:52s} {seconds:>14} {metrics_text(metrics)}", flush=True)
            records.append(
                {"layer": layer, "key": cell.key, "params": cell.params, "metrics": metrics}
            )
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI sizes for the kernel, weak and vector layers"
    )
    parser.add_argument(
        "--layers",
        type=_layers,
        default=list(DEFAULT_LAYERS),
        help=f"comma-separated layers to run (default: {','.join(DEFAULT_LAYERS)}; "
        f"also: {','.join(sorted(set(LAYERS) - set(DEFAULT_LAYERS)))})",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_partition.json"), help="JSON output path"
    )
    args = parser.parse_args(argv)

    meta = {
        "quick": args.quick,
        "layers": args.layers,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    payload = {"meta": meta, "records": run(args.layers, args.quick)}
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output} ({len(payload['records'])} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
