#!/usr/bin/env python3
"""CI bench gate: evaluate the committed gate rows and expected seconds against a run.

Reads the ``BENCH_partition.json`` written by ``benchmarks/run_all.py`` and
the committed ``benchmarks/baseline_expectations.json``.  Both kinds of gate
apply to a layer exactly when it ran (``meta.layers``):

* **Gate rows** (``gates``): ``{"layer", "cells", "metric", "op",
  "threshold"}``, optionally ``"min_n"`` and ``"best"``, with ``"why"`` as
  the reason printed on failure.  A row selects the layer's records whose
  key matches the ``cells`` glob and whose ``n`` is at least ``min_n``, and
  requires ``metric op threshold`` of every selected record that carries the
  metric -- or, with ``"best": true``, of the largest such value.  A row
  whose selected records carry no such metric fails: a metric missing from a
  layer that ran is a failure, not a pass.
* **Expected seconds** (``expected_seconds``, per layer): every expected
  cell must be present, and none may take more than ``factor`` times its
  expectation, after dividing out the hardware normaliser.  Expectations
  below ``MIN_EXPECTED_SECONDS`` count as that much.  The normaliser is the
  median ``current / expected`` over the cells expected to take at least
  ``MIN_EXPECTED_SECONDS``: a uniformly slower machine shifts each such
  ratio equally and is divided out, while a genuine regression moves one
  cell against the rest.  A clamped ratio measures the clamp, not the
  machine, so it does not vote.

The script prints the per-cell table and, when ``$GITHUB_STEP_SUMMARY`` is
set, appends the same table as markdown to the job summary.  ``--update``
rewrites the expected seconds of every baselined layer that ran and leaves
the gate rows alone; review the diff before committing.  The module imports
nothing from ``repro`` or the bench modules.

Usage::

    python benchmarks/run_all.py --quick
    python benchmarks/check_regression.py              # the CI gate
    python benchmarks/check_regression.py --update     # refresh the expected seconds
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import statistics
import sys
from fnmatch import fnmatchcase
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_BENCH = BENCH_DIR.parent / "BENCH_partition.json"
BASELINE = BENCH_DIR / "baseline_expectations.json"

#: expectations below this count as this slow: millisecond-scale cells
#: swing 2-3x from scheduler and interpreter noise alone, so the per-cell
#: gate only has teeth once a cell costs tens of milliseconds.
MIN_EXPECTED_SECONDS = 0.05

OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def n_of(key: str) -> int:
    return int(key.rsplit("|", 1)[1])


def row_failures(row: dict, records: list[dict]) -> list[str]:
    """The violations of one gate row over the records of its layer."""
    layer, metric, op, threshold = row["layer"], row["metric"], row["op"], row["threshold"]
    cells = row.get("cells", "*") + (f" at n >= {row['min_n']}" if "min_n" in row else "")
    values = [
        (record["key"], record["metrics"][metric])
        for record in records
        if record["layer"] == layer
        and fnmatchcase(record["key"], row.get("cells", "*"))
        and n_of(record["key"]) >= row.get("min_n", 0)
        and metric in record["metrics"]
    ]
    if not values:
        return [f"{layer}: no {cells} cell records {metric} -- {row['why']}"]
    if row.get("best"):
        values = [max(values, key=lambda item: item[1])]
    return [
        f"{layer}: {key} {metric} is {value}, needs {op} {threshold} -- {row['why']}"
        for key, value in values
        if not OPS[op](value, threshold)
    ]


def evaluate(payload: dict, baseline: dict) -> tuple[list[str], list[tuple], float]:
    """All violations, the per-cell rows and the hardware normaliser.

    A row is ``(layer, key, expected, current, ratio, status, metrics)``.
    """
    ran = set(payload["meta"]["layers"])
    records = payload["records"]
    failures = [
        failure
        for row in baseline["gates"]
        if row["layer"] in ran
        for failure in row_failures(row, records)
    ]
    expected = {
        (layer, key): seconds
        for layer, cells in baseline["expected_seconds"].items()
        if layer in ran
        for key, seconds in cells.items()
    }
    current = {(record["layer"], record["key"]): record for record in records}
    ratios = {
        cell: current[cell]["metrics"]["seconds"] / max(seconds, MIN_EXPECTED_SECONDS)
        for cell, seconds in expected.items()
        if "seconds" in current.get(cell, {}).get("metrics", {})
    }
    unclamped = [ratio for cell, ratio in ratios.items() if expected[cell] >= MIN_EXPECTED_SECONDS]
    normaliser = max(statistics.median(unclamped), 0.1) if len(unclamped) >= 3 else 1.0
    allowed = baseline["factor"] * normaliser
    rows = []
    for layer, key in sorted(set(current) | set(expected)):
        before, ratio = expected.get((layer, key)), ratios.get((layer, key))
        metrics = current.get((layer, key), {}).get("metrics", {})
        if layer not in baseline["expected_seconds"]:
            status = "ungated"
        elif before is None:
            status = "new"
        elif ratio is None:
            status = "MISSING"
            failures.append(f"{layer}: cell {key} has no seconds in this run")
        elif ratio > allowed:
            status = "REGRESSED"
            failures.append(
                f"{layer}: cell {key} seconds {metrics['seconds']:.4f} vs expected "
                f"{before:.4f} ({ratio:.2f}x, allowed {baseline['factor']:.1f}x at "
                f"hardware factor {normaliser:.2f})"
            )
        else:
            status = "ok"
        rows.append((layer, key, before, metrics.get("seconds"), ratio, status, metrics))
    return failures, rows, normaliser


def _cell(value, template: str) -> str:
    return "-" if value is None else template.format(value)


def metrics_text(metrics: dict) -> str:
    """The scalar metrics of a record other than its timing, as ``name=value`` pairs."""
    return " ".join(
        f"{name}={value:.4g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in metrics.items()
        if name not in ("seconds", "samples") and not isinstance(value, (dict, list))
    )


def render(rows: list[tuple], normaliser: float, factor: float, failures, markdown: bool) -> str:
    """The per-cell table as console text or as the GitHub step summary."""
    head = f"{len(rows)} cells, hardware factor {normaliser:.2f}, allowed {factor:.1f}x per cell"
    table = [
        (
            f"`{key}`" if markdown else key,
            layer,
            _cell(before, "{:.4f}s"),
            _cell(after, "{:.4f}s"),
            _cell(ratio, "{:.2f}x"),
            status,
            metrics_text(metrics),
        )
        for layer, key, before, after, ratio, status, metrics in rows
    ]
    columns = ("cell", "layer", "expected", "current", "ratio", "status", "metrics")
    if not markdown:
        widths = [max(len(line[i]) for line in [columns, *table]) for i in range(6)]
        lines = [f"per-cell trajectory ({head}):"]
        for line in [columns, *table]:
            lines.append("  " + "  ".join(f"{text:<{width}}" for text, width in zip(line, widths)))
            lines[-1] += "  " + line[6]
        return "\n".join(lines)
    lines = [f"## Bench gate: {'FAILED' if failures else 'passed'}", "", head + ".", ""]
    if failures:
        lines += ["### Violations", "", *[f"- {failure}" for failure in failures], ""]
    lines += ["| " + " | ".join(columns) + " |", "| --- " * len(columns) + "|"]
    lines += ["| " + " | ".join(line) + " |" for line in table]
    return "\n".join(lines) + "\n"


def updated(payload: dict, baseline: dict) -> dict:
    """The baseline with this run's seconds for every baselined layer that ran."""
    expected = dict(baseline["expected_seconds"])
    for layer in set(payload["meta"]["layers"]) & set(expected):
        expected[layer] = {
            record["key"]: record["metrics"]["seconds"]
            for record in sorted(payload["records"], key=lambda record: record["key"])
            if record["layer"] == layer
        }
    meta = payload["meta"]
    recorded_on = {"python": meta.get("python"), "platform": meta.get("platform")}
    return {**baseline, "recorded_on": recorded_on, "expected_seconds": expected}


def dumps_baseline(baseline: dict) -> str:
    """JSON with one gate row per line, so each row reads as a rule."""
    text = json.dumps({**baseline, "gates": []}, indent=2)
    rows = ",\n".join(f"    {json.dumps(row)}" for row in baseline["gates"])
    return text.replace('"gates": []', '"gates": [\n' + rows + "\n  ]") + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", type=Path, default=DEFAULT_BENCH, help="BENCH_partition.json path"
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the expected seconds from this run"
    )
    args = parser.parse_args(argv)

    if not args.bench.exists():
        print(f"ERROR: {args.bench} not found -- run benchmarks/run_all.py first", file=sys.stderr)
        return 2
    payload = json.loads(args.bench.read_text(encoding="utf-8"))
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    if args.update:
        BASELINE.write_text(dumps_baseline(updated(payload, baseline)), encoding="utf-8")
        print(f"wrote {BASELINE} (expected seconds of {payload['meta']['layers']})")
        return 0

    failures, rows, normaliser = evaluate(payload, baseline)
    print(render(rows, normaliser, baseline["factor"], failures, markdown=False))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render(rows, normaliser, baseline["factor"], failures, markdown=True))
    if failures:
        print(f"bench-gate FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench-gate passed: every gate row and cell of {payload['meta']['layers']} holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
