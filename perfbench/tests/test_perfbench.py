"""Tests of the benchmark itself: contract, metrics, determinism, checks.

Smoke runs use ``--scale 0.01`` (tables of a few thousand keys), so
the whole module takes well under a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.oracle import OP_DELETE, OP_FIND, OP_INSERT, Reference
from perfbench.tracing import SpanRecorder
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Metrics that depend only on the seed, never on the host clock.
DETERMINISTIC = ("sim_mops", "sim_batch_us_p95", "bytes_per_entry",
                 "op_success_rate")


def smoke(workload: str, trace: int, out: Path) -> dict:
    """Run one smoke-sized workload in its own process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SMOKE_SEED), "--seconds", "0.2", "--trace",
           str(trace), "--scale", "0.01", "--out", str(out)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    suffix = "traced" if trace else "result"
    artifact = json.loads(
        (out / f"{workload}-seed{SMOKE_SEED}.{suffix}.json").read_text())
    return {"result": result, "artifact": artifact}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Two smoke runs per workload and trace mode, same seed."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out[workload, trace] = [
                smoke(workload, trace, tmp_path_factory.mktemp("run"))
                for _ in range(2)]
    return out


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        assert entry["why"] == WORKLOADS[entry["name"]].why
    bounds = {}
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        bounds[entry["name"]] = entry["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    seen = set()
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
        assert entry["name"] not in seen
        seen.add(entry["name"])


def test_benchmark_json_matches_the_harness():
    assert {e["name"]: (e["unit"], e["better"])
            for e in SPEC["end_to_end"]} == harness.END_TO_END
    assert {e["name"]: e["unit"]
            for e in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(runs, workload, trace):
    result = runs[workload, trace][0]["result"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in spec}
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_deterministic_metrics_repeat_bit_for_bit(runs, workload):
    first, second = runs[workload, 0]
    for name in DETERMINISTIC:
        assert (first["result"]["metrics"][name]["value"]
                == second["result"]["metrics"][name]["value"]), name
    assert first["artifact"]["op_error_rate"] == \
        second["artifact"]["op_error_rate"]
    traced = [run["result"]["metrics"] for run in runs[workload, 1]]
    for name in harness.PER_LAYER:
        counted = name.startswith("core.resize.") and \
            not name.endswith("self_s")
        if name.startswith("sim.") or counted:
            assert traced[0][name]["value"] == traced[1][name]["value"], name


def test_traced_run_writes_layer_and_chrome_trace_files(tmp_path):
    smoke("cohort_mixed", 1, tmp_path)
    stem = tmp_path / f"cohort_mixed-seed{SMOKE_SEED}"
    layers = json.loads(Path(f"{stem}.layers.json").read_text())
    assert "gpusim.cohort.cohort_insert" in layers["functions"]
    events = json.loads(Path(f"{stem}.trace.json").read_text())
    spans = events["traceEvents"]
    assert spans and all(e["ph"] == "X" and e["dur"] >= 0 for e in spans)
    assert {e["cat"] for e in spans} >= {"core.batch_ops", "gpusim.cohort"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_add_up_to_the_traced_wall_time(runs, workload):
    metrics = runs[workload, 1][0]["result"]["metrics"]
    layers = sum(metrics[f"{layer}.self_s"]["value"]
                 for layer in harness.LAYERS)
    total = layers + metrics["trace.unattributed_s"]["value"]
    assert total == pytest.approx(metrics["trace.wall_s"]["value"])
    assert metrics["trace.unattributed_s"]["value"] >= 0


def test_result_artifact_records_its_context(runs):
    context = runs["sharded_ycsb_a", 0][0]["artifact"]["context"]
    for key in ("git_commit", "cpu_count", "python", "numpy", "seed",
                "ops_measured", "batches_measured", "ops_per_pass",
                "batches_per_pass"):
        assert key in context
    assert context["seed"] == SMOKE_SEED
    assert context["batches_measured"] >= harness.MIN_BATCHES


def test_corrupted_find_result_fails_the_run(monkeypatch, tmp_path, capsys):
    from repro.core.table import DyCuckooTable

    original = DyCuckooTable.find

    def corrupted(self, keys):
        values, found = original(self, keys)
        values = values.copy()
        values[np.flatnonzero(found)[:1]] ^= np.uint64(1)
        return values, found

    monkeypatch.setattr(DyCuckooTable, "find", corrupted)
    status = harness.main(["--workload", "ycsb_b_zipf", "--seed", "1",
                           "--seconds", "0", "--scale", "0.01",
                           "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] > 0


def test_reference_applies_batch_semantics():
    ref = Reference(np.arange(1, 11, dtype=np.uint64))
    keys = np.array([3, 4, 3], dtype=np.uint64)
    ref.insert(ref.index(keys), np.array([30, 40, 31], dtype=np.uint64))
    idx = ref.index(np.array([3, 4, 5], dtype=np.uint64))
    assert ref.find_mismatches(idx, np.array([31, 40, 0], np.uint64),
                               np.array([True, True, False])) == 0
    # A flipped value, a lost key and a phantom hit are three mismatches.
    assert ref.find_mismatches(idx, np.array([30, 40, 9], np.uint64),
                               np.array([True, False, True])) == 3
    dup = ref.index(np.array([4, 4, 6], dtype=np.uint64))
    assert ref.delete(dup, np.array([True, False, False])) == 0
    assert len(ref) == 1
    assert ref.contents_mismatches(np.array([3], np.uint64),
                                   np.array([31], np.uint64)) == 0
    assert ref.contents_mismatches(np.array([3, 3], np.uint64),
                                   np.array([31, 31], np.uint64)) == 1


def test_reference_runs_mixed_batches_in_program_order():
    ref = Reference(np.arange(1, 4, dtype=np.uint64))
    ops = np.array([OP_INSERT, OP_DELETE, OP_FIND], dtype=np.int64)
    keys = np.array([2, 2, 2], dtype=np.uint64)
    values = np.array([5, 0, 0], dtype=np.uint64)
    bad = ref.mixed(ops, ref.index(keys), values,
                    np.zeros(3, np.uint64), np.array([False, False, False]),
                    np.array([False, True, False]))
    assert bad == 0


def test_kernel_reference_accepts_any_duplicate_value_once():
    ref = Reference(np.arange(1, 4, dtype=np.uint64), any_duplicate=True)
    idx = ref.index(np.array([1, 1], dtype=np.uint64))
    ref.insert(idx, np.array([10, 11], dtype=np.uint64))
    one = ref.index(np.array([1, 1], dtype=np.uint64))
    assert ref.find_mismatches(one, np.array([10, 10], np.uint64),
                               np.array([True, True])) == 0
    # The observed value is now the exact one.
    assert ref.find_mismatches(one[:1], np.array([11], np.uint64),
                               np.array([True])) == 1


def test_tracing_restores_every_patched_function():
    import repro.core.table as table_module
    from repro.core.subtable import Subtable

    before = (table_module.encode_keys, Subtable.place_round,
              table_module.first_occurrence_mask)
    recorder = SpanRecorder()
    with recorder.patched():
        assert table_module.encode_keys is not before[0]
        table_module.DyCuckooTable().insert(
            np.arange(100, dtype=np.uint64), np.arange(100, dtype=np.uint64))
    assert (table_module.encode_keys, Subtable.place_round,
            table_module.first_occurrence_mask) == before
    names = {span.name for span in recorder.spans}
    assert {"core.table.insert", "core.subtable.place_round",
            "core.hashing.tables_for"} <= names


def test_percentile_window_matches_smooth_data_and_bridges_modes():
    smooth = np.linspace(0.0, 1.0, 401)
    assert harness._percentile(smooth, 50) == pytest.approx(0.5)
    bimodal = np.concatenate([np.full(200, 1.0), np.full(200, 3.0)])
    assert 1.0 < harness._percentile(bimodal, 50) < 3.0
