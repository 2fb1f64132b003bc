"""The benchmark's stored goldens hold for the current program.

``perfbench/workloads.py`` builds the benchmark's ops and
``perfbench/goldens/<workload>.json`` stores the digest of each op's
result at ``GOLDEN_SEED``. This runs the first round of that seed for every
workload with goldens, from the repo root as the benchmark does, so a change
of output fails here instead of in a benchmark run. Ops that only check an
input error have no golden, as in ``perfbench/make_goldens.py``. The
``moment`` ops return no payload and have no goldens, so only their property
verdicts are checked.
"""

import json
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))


@pytest.mark.parametrize("workload", ["stability", "chambers", "cli"])
def test_first_golden_round_matches(workload, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)
    golden = json.loads((PERFBENCH / "goldens" / f"{workload}.json").read_text())
    (first_round,) = WORKLOADS["build"](workload, WORKLOADS["GOLDEN_SEED"], rounds=1)
    ops = [op for op in first_round if op.fn is not WORKLOADS["op_cli_error"]]
    assert ops
    for op in ops:
        ok, payload = op.fn(*op.args)
        assert ok, op.key
        assert WORKLOADS["digest"](payload) == golden[op.key], op.key


def test_first_golden_round_of_moment_holds(monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)
    (first_round,) = WORKLOADS["build"]("moment", WORKLOADS["GOLDEN_SEED"], rounds=1)
    assert first_round
    for op in first_round:
        ok, payload = op.fn(*op.args)
        assert ok and payload is None, op.key
