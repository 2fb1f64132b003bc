"""quiverlab benchmark: one workload, closed loop with one client.

    python3 perfbench/run.py --workload stability --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in fresh worker
processes (perfbench/worker.py) with a fixed PYTHONHASHSEED. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass. The lines
before it give the environment and every metric by name with its unit.

Times are process CPU times, so time the host gives to other tenants does
not count, divided by the host's slowness against a fixed reference kernel
(perfbench/reference.py) sampled between ops, so a drifting host speed does
not count either. The unscaled CPU and wall figures are printed too.
Exits non-zero without a result when a worker fails, for instance when
the checkout has no quiverlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability", "chambers", "moment", "cli")

# set-up is timed in this many fresh processes and reported as the median
SETUP_REPEATS = 3
# the tail is the latency with this many ops beyond it, taken per block of
# TAIL_BLOCK consecutive ops and reported as the median over the blocks, so
# its percentile stays the same however many ops a run completes
TAIL_BEYOND = 10
TAIL_BLOCK = 1000
# every worker must have ended this long after the benchmark started
DEADLINE_S = 170


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(args, setup_only: bool, deadline: float) -> dict:
    """Run one worker process; returns its JSON output.

    A worker still running at ``deadline`` (monotonic) is killed and waited for.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple[float, float, int]:
    """(latency, percentile, blocks): the median over blocks of the latency
    at the highest percentile with TAIL_BEYOND ops beyond it in the block.

    Blocks hold exactly TAIL_BLOCK consecutive ops and a trailing partial
    block is left out; a run shorter than one block is a single block.
    """
    size = min(TAIL_BLOCK, len(latencies))
    count = len(latencies) // size
    k = max(size - TAIL_BEYOND - 1, 0)
    values = [sorted(latencies[b * size:(b + 1) * size])[k] for b in range(count)]
    return statistics.median(values), 100.0 * (k + 1) / size, count


def end_to_end(run: dict, setups: list) -> tuple[dict, list]:
    """End-to-end metrics of the timed loop and of the set-ups, with notes."""
    slowness = run["slowness"]
    lat = [t / slowness for t in run["latency_s"]]
    n = len(lat)
    tail_s, pct, blocks = tail(lat)
    failed = n - sum(run["ok"])
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        # the lower median, so the p50 is the latency of an op that ran
        "op_p50_ms": (statistics.median_low(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    cpu_s, wall_s = sum(run["round_s"]), sum(run["round_wall_s"])
    notes = [
        f"op_tail_ms is p{pct:.2f}, {TAIL_BEYOND} ops beyond it in each of {blocks} blocks "
        f"of {min(TAIL_BLOCK, n)} ops ({n} ops run), median over the blocks",
        f"fail_ratio {failed / n:.6f} ratio ({failed} of {n} ops failed)",
        "setup_s runs: " + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
        + " (unscaled CPU: " + ", ".join(f"{s['setup_cpu_s']:.4f}" for s in setups) + ")",
        f"host slowness against the reference kernel: {slowness:.4f} (times are CPU times divided by it)",
        f"unscaled: {n / cpu_s:.6g} ops per CPU second, "
        f"op_p50 {statistics.median_low(run['latency_s']) * 1e3:.6g} ms CPU, "
        f"{n / wall_s:.6g} ops per wall second ({wall_s:.3f} s wall for {cpu_s:.3f} s CPU)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    env = {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_worker(args, True, deadline))
    run = _worker(args, False, deadline)
    setups.append(run)
    env["loadavg_end"] = os.getloadavg()

    n = len(run["ok"])
    failed = n - sum(run["ok"])
    # a failure counts against correctness unless it is a recorded known
    # defect failing with its recorded exception
    correct = not run["unexpected"] and not run["warmup_errors"]
    if args.trace:
        correct = correct and run["traced_ok"] == run["ok"]
        metrics = {name: (value, metric_unit(name)) for name, value in run["layers"].items()}
        notes = []
    else:
        metrics, notes = end_to_end(run, setups)

    print("env " + json.dumps(env))
    print(f"workload {args.workload}: seed {args.seed}, {len(run['round_s'])} rounds, "
          f"{n} ops in {sum(run['round_s']):.3f} s, closed loop with one client")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(line)
    for err in run["errors"]:
        print(f"failed: {err}")
    for err in run["unexpected"] + run["warmup_errors"]:
        print(f"unexpected failure: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
