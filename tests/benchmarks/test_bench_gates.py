"""The bench gate (``benchmarks/check_regression.py``) against synthetic runs.

A payload built from the committed ``baseline_expectations.json`` -- every
expected cell at its expected seconds, every gate row's metric exactly at
its threshold -- must pass; one mutation per gate type must fail with the
metric named.  No benchmark runs: the gate module is loaded by path and
imports only the standard library.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GATE_PATH = ROOT / "benchmarks" / "check_regression.py"

SOAK = "service_open_loop_4_shards|service_load|10000"
CLUSTER = "cluster_open_loop_3_nodes|cluster_load|10000"

#: cells of the layers without expected seconds, chosen so that every
#: committed row of those layers selects one.
UNTIMED_CELLS = (
    ("scale", "vector|shift_register|131072"),
    ("scale", "vector_mmap|shift_register|1048576"),
    ("soak", SOAK),
    ("cluster", CLUSTER),
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_regression", module)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
BASELINE = json.loads(gate.BASELINE.read_text(encoding="utf-8"))


def _selects(row: dict, layer: str, key: str) -> bool:
    return (
        layer == row["layer"]
        and fnmatchcase(key, row.get("cells", "*"))
        and gate.n_of(key) >= row.get("min_n", 0)
    )


def passing_payload() -> dict:
    """Every expected cell at its expected seconds, every row's metric at its threshold."""
    cells = [
        (layer, key, seconds)
        for layer, expected in BASELINE["expected_seconds"].items()
        for key, seconds in expected.items()
    ]
    cells += [(layer, key, 1.0) for layer, key in UNTIMED_CELLS]
    records = {
        (layer, key): {"layer": layer, "key": key, "params": {}, "metrics": {"seconds": seconds}}
        for layer, key, seconds in cells
    }
    for row in BASELINE["gates"]:
        for (layer, key), record in records.items():
            if _selects(row, layer, key):
                record["metrics"][row["metric"]] = row["threshold"]
    layers = sorted({layer for layer, _key in records})
    return {"meta": {"layers": layers}, "records": list(records.values())}


def _record(payload: dict, key: str) -> dict:
    (record,) = [record for record in payload["records"] if record["key"] == key]
    return record


def _failures(payload: dict) -> list[str]:
    return gate.evaluate(payload, BASELINE)[0]


def test_gate_module_imports_only_the_standard_library():
    tree = ast.parse(GATE_PATH.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


def test_every_row_selects_a_cell_of_the_synthetic_run():
    payload = passing_payload()
    for row in BASELINE["gates"]:
        assert any(
            _selects(row, record["layer"], record["key"]) for record in payload["records"]
        ), row


def test_a_run_meeting_every_row_passes():
    failures, rows, normaliser = gate.evaluate(passing_payload(), BASELINE)
    assert failures == []
    assert normaliser == pytest.approx(1.0)
    expected = sum(len(cells) for cells in BASELINE["expected_seconds"].values())
    assert sum(status == "ok" for *_rest, status, _metrics in rows) == expected == 97


@pytest.mark.parametrize(
    ("kind", "key", "metric", "value"),
    [
        ("flag", "kanellakis_smolka|comb|401", "agrees", False),
        ("flag", "compositional_minimize|token_ring|12", "agrees", False),
        ("flag", "protocol_deadlock_bfs|two_phase_commit_crash|2", "deadlock_found", False),
        ("floor", "engine_check_many|engine_pool|240", "speedup", 4.9),
        ("floor", "service_4_shards|service_manifest|500", "speedup", 2.4),
        ("ceiling", "on_the_fly_strong|interleaved_cycles_fault|262144", "visit_fraction", 0.2),
        ("ceiling", "reduction_full_conformance|quorum_voting|25", "visit_fraction", 0.06),
        ("ceiling", "engine_auto|comb|2001", "over_best_other", 2.1),
        ("ceiling", "engine_auto|shift_register|4096", "over_first", 1.01),
        ("best-over-n floor", "weak_kernel_paige_tarjan|tau_ladder|2001", "speedup", 4.9),
        ("best-over-n floor", "vector|shift_register|131072", "speedup", 9.9),
        ("per-record field", SOAK, "revivals", 1),
        ("per-record field", SOAK, "p99_ms", 1000.1),
        ("per-record field", CLUSTER, "sustained_ratio", 0.69),
        ("per-record field", CLUSTER, "failover_verified", False),
    ],
)
def test_each_gate_type_fails_with_its_metric_named(kind, key, metric, value):
    payload = passing_payload()
    _record(payload, key)["metrics"][metric] = value
    failures = _failures(payload)
    assert len(failures) == 1, (kind, failures)
    assert key in failures[0] and metric in failures[0]


def test_best_over_n_ignores_small_n_and_takes_the_largest_value():
    payload = passing_payload()
    _record(payload, "weak_kernel_paige_tarjan|tau_ladder|401")["metrics"]["speedup"] = 1.0
    assert _failures(payload) == []
    extra = {"layer": "scale", "key": "vector|shift_register|262144", "params": {}}
    payload["records"].append({**extra, "metrics": {"seconds": 1.0, "speedup": 50.0}})
    _record(payload, "vector|shift_register|131072")["metrics"]["speedup"] = 2.0
    assert _failures(payload) == []


def test_presence_fails_when_the_scale_tier_is_absent():
    payload = passing_payload()
    payload["records"].remove(_record(payload, "vector_mmap|shift_register|1048576"))
    # a smaller mmap cell does not stand in for the 10^6-state tier
    smaller = {"layer": "scale", "key": "vector_mmap|shift_register|131072", "params": {}}
    payload["records"].append({**smaller, "metrics": {"seconds": 1.0, "blocks": 2}})
    (failure,) = _failures(payload)
    assert "vector_mmap|*" in failure and "blocks" in failure


def test_missing_cell_fails():
    payload = passing_payload()
    payload["records"].remove(_record(payload, "naive|comb|401"))
    (failure,) = _failures(payload)
    assert "naive|comb|401" in failure and "seconds" in failure


def test_regressed_cell_fails():
    payload = passing_payload()
    key = "seed_kanellakis_smolka|comb|2001"
    _record(payload, key)["metrics"]["seconds"] = 2.1 * BASELINE["expected_seconds"]["kernel"][key]
    (failure,) = _failures(payload)
    assert key in failure and "seconds" in failure


def test_rows_of_layers_that_did_not_run_are_skipped():
    payload = passing_payload()
    payload["meta"]["layers"] = ["kernel"]
    payload["records"] = [record for record in payload["records"] if record["layer"] == "kernel"]
    assert _failures(payload) == []


def test_a_layer_that_ran_without_a_metric_fails():
    payload = passing_payload()
    del _record(payload, SOAK)["metrics"]["completion_ratio"]
    (failure,) = _failures(payload)
    assert failure.startswith("soak:") and "completion_ratio" in failure


def test_the_normaliser_ignores_clamped_cells():
    # Unclamped cells at 1x and 2x their expectation, half each (the last at
    # 1.5x when their count is odd): their median is 1.5.  Clamped cells at a
    # fifth of the 0.05 s clamp would drag a median over all cells down to 1.0.
    payload = passing_payload()
    unclamped = []
    for record in payload["records"]:
        seconds = BASELINE["expected_seconds"].get(record["layer"], {}).get(record["key"])
        if seconds is None:
            continue
        if seconds < gate.MIN_EXPECTED_SECONDS:
            record["metrics"]["seconds"] = 0.2 * gate.MIN_EXPECTED_SECONDS
        else:
            unclamped.append((record, seconds))
    for index, (record, seconds) in enumerate(unclamped):
        odd_one_out = len(unclamped) % 2 == 1 and index == len(unclamped) - 1
        record["metrics"]["seconds"] = (1.5 if odd_one_out else 1 + index % 2) * seconds
    assert len(unclamped) >= 3
    failures, _rows, normaliser = gate.evaluate(payload, BASELINE)
    assert failures == []
    assert normaliser == pytest.approx(1.5)


def test_update_rewrites_only_the_expected_seconds_of_layers_that_ran():
    payload = passing_payload()
    payload["meta"].update(layers=["kernel", "soak"], python="3.x", platform="test")
    new_cell = {"layer": "kernel", "key": "naive|comb|9", "params": {}}
    payload["records"].append({**new_cell, "metrics": {"seconds": 0.5}})
    updated = gate.updated(payload, BASELINE)
    assert updated["gates"] == BASELINE["gates"]
    assert updated["expected_seconds"]["weak"] == BASELINE["expected_seconds"]["weak"]
    assert "soak" not in updated["expected_seconds"]
    kernel = {**BASELINE["expected_seconds"]["kernel"], "naive|comb|9": 0.5}
    assert updated["expected_seconds"]["kernel"] == pytest.approx(kernel)


def _slower_run(factor: float) -> dict:
    payload = passing_payload()
    payload["meta"].update(python="3.x", platform="test")
    for record in payload["records"]:
        record["metrics"]["seconds"] *= factor
    return payload


def _expected_cells(expected_seconds: dict) -> dict:
    return {
        (layer, key): seconds
        for layer, cells in expected_seconds.items()
        for key, seconds in cells.items()
    }


def test_update_divides_out_a_uniformly_slower_machine():
    updated = gate.updated(_slower_run(1.5), BASELINE)
    before = _expected_cells(BASELINE["expected_seconds"])
    after = _expected_cells(updated["expected_seconds"])
    assert after == pytest.approx(before, rel=1e-3, abs=1e-6)


def test_update_halves_the_expectation_of_a_cell_twice_as_fast_as_the_rest():
    payload = _slower_run(1.5)
    layer, key = "kernel", "seed_kanellakis_smolka|comb|2001"
    seconds = BASELINE["expected_seconds"][layer][key]
    assert seconds >= gate.MIN_EXPECTED_SECONDS
    _record(payload, key)["metrics"]["seconds"] = 0.75 * seconds
    after = _expected_cells(gate.updated(payload, BASELINE)["expected_seconds"])
    before = _expected_cells(BASELINE["expected_seconds"])
    assert after.pop((layer, key)) == pytest.approx(seconds / 2, rel=1e-3)
    del before[(layer, key)]
    assert after == pytest.approx(before, rel=1e-3, abs=1e-6)


def test_committed_baseline_is_in_the_format_update_writes():
    text = gate.BASELINE.read_text(encoding="utf-8")
    assert gate.dumps_baseline(json.loads(text)) == text


def test_render_lists_every_cell_in_both_formats():
    payload = passing_payload()
    _record(payload, "naive|comb|401")["metrics"]["seconds"] = 1.0
    failures, rows, normaliser = gate.evaluate(payload, BASELINE)
    console = gate.render(rows, normaliser, BASELINE["factor"], failures, markdown=False)
    summary = gate.render(rows, normaliser, BASELINE["factor"], failures, markdown=True)
    assert summary.startswith("## Bench gate: FAILED")
    for layer, key, *_rest in rows:
        assert key in console and f"`{key}`" in summary
    assert "REGRESSED" in console and "ungated" in console
