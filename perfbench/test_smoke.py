"""Smoke test of the benchmark at tiny size (one-second runs).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced at the golden seed and
checks that each metric in BENCHMARK.json is printed, that every op
matches its golden or is a recorded known defect, and that the traced
runs together cover all ten layers; and checks how the reference kernel's
slices are weighted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GOLDEN_SEED = "0"


def bench(workload: str, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", GOLDEN_SEED, "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_goldens(workload):
    notes, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], notes
    assert not [line for line in notes if "golden mismatch" in line]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("env ") for line in notes)
    assert any(line.startswith("fail_ratio ") for line in notes)
    if workload != "cli":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, traced):
    _, result = traced[workload]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == spans.metric_names()
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # self times of the layers and of the benchmark partition the traced op
    # time, which each layer's share gives back as self_s / share
    busiest = max(spans.LAYERS, key=lambda layer: m[f"{layer}.share"])
    op_time = m[f"{busiest}.self_s"] / m[f"{busiest}.share"]
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["bench.self_s"]
    assert total == pytest.approx(op_time, rel=1e-9)
    assert m["trace.overhead_ratio"] > 0
    if workload in ("stability", "moment"):
        # set-up is traced: the input pool is drawn with quiverlab.sampling
        assert m["sampling.random_representation.calls"] > 0
        assert m["surgery.build_aux.calls"] > 0


def test_traced_runs_cover_every_layer(traced):
    covered = {
        layer
        for _, result in traced.values()
        for layer in spans.LAYERS
        if result["metrics"][f"{layer}.self_s"]["value"] > 0
    }
    assert covered == set(spans.LAYERS)


def test_known_defect_must_fail_with_its_exception():
    op = workloads.Op("chambers --roots 1,0;1", "cli-error:chambers", workloads.op_cli_error,
                      (), known_defect="IndexError")
    assert op.failure_expected("IndexError: tuple index out of range")
    assert not op.failure_expected("property check failed")
    assert not op.failure_expected("ValueError: IndexError")
    assert not workloads.Op("k", "cli:x", workloads.op_cli, ()).failure_expected("IndexError: x")


def test_speedometer_weights_slices_by_the_ops_before_them(monkeypatch):
    # the kernel eliminates a full-rank matrix, so every slice does the same work
    assert reference._rref_rank([list(row) for row in reference._MATRIX]) == reference.SIZE
    times = iter([0.010, 0.020])
    monkeypatch.setattr(reference, "reference_slice", lambda: next(times))
    meter = reference.Speedometer()
    meter.after_op(reference.CPU_PER_SLICE_S * 3)  # a slice after three periods of ops
    meter.after_op(reference.CPU_PER_SLICE_S / 2)  # half a period, covered by close()
    meter.close()
    assert meter.slices == [0.010, 0.020]
    mean = (0.010 * 3 + 0.020 * 0.5) / 3.5
    assert meter.slowness() == pytest.approx(mean / reference.REFERENCE_SLICE_S)
