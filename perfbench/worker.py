"""One workload in one fresh process: set-up, warm-up, timed loop, traced pass.

run.py starts it with a fixed PYTHONHASHSEED, the checkout root as working
directory and the checkout's src/ on PYTHONPATH. It prints one JSON object
with the measurements: ops and set-up timed on the process CPU clock, and
the host's slowness against reference.py over each.

    python3 perfbench/worker.py --workload stability --seed 0 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload stability --seed 0 --setup-only
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# reference slices on each side of set-up
SETUP_SLICES = 10


def _check_source():
    """Refuse to measure a quiverlab that is not the checkout's own."""
    import quiverlab

    src = (ROOT / "src").resolve()
    if src not in Path(quiverlab.__file__).resolve().parents:
        raise SystemExit(f"quiverlab imported from {quiverlab.__file__}, not from {src}")


def run_ops(ops, golden, tracer=None, meter=None):
    """Run ops one after another; returns (CPU seconds, ok, error) per op.

    The op's own property checks are inside its timing; the golden
    comparison and the meter's reference slices are not.
    """
    from workloads import digest

    clock = time.process_time
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        error = None
        t0 = clock()
        try:
            ok, payload = op.fn(*op.args)
        except Exception as e:  # a failed op is counted, the loop goes on
            ok, payload, error = False, None, f"{type(e).__name__}: {e}"
        elapsed = clock() - t0
        if meter is not None:
            meter.after_op(elapsed)
        if not ok and error is None:
            error = "property check failed"
        elif ok and op.key in golden and golden[op.key] != digest(payload):
            ok, error = False, "golden mismatch"
        results.append((elapsed, ok, error))
    return results


def unexpected(ops, results) -> list:
    """Failures other than the recorded known defects, one line per input."""
    return sorted({f"{op.key}: {err}" for op, (_, ok, err) in zip(ops, results)
                   if not ok and not op.failure_expected(err)})


def timed_loop(pool, golden, seconds: float):
    """Closed loop, one client, whole rounds until ``seconds`` have passed.

    Returns the ops run, their results, the CPU time and the wall time of
    each round, and the host's slowness over the loop.
    """
    wall = time.perf_counter
    meter = reference.Speedometer()
    ops, results, round_s, round_wall_s = [], [], [], []
    t_start = wall()
    while not ops or wall() - t_start < seconds:
        batch = pool[len(round_s) % len(pool)]
        w0 = wall()
        done = run_ops(batch, golden, meter=meter)
        results += done
        round_s.append(sum(t for t, _, _ in done))
        round_wall_s.append(wall() - w0)
        ops += batch
    meter.close()
    return ops, results, round_s, round_wall_s, meter.slowness()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up is timed on the process CPU clock and scaled by the host's
    # slowness, from reference slices on either side of it
    meter = reference.Speedometer()
    for _ in range(SETUP_SLICES):
        meter.take()
    _check_source()
    import spans
    import workloads

    # a traced run traces set-up too, so input generation and build_aux
    # count toward their functions' calls and self time
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    pool = workloads.build(args.workload, args.seed)
    golden_path = HERE / "goldens" / f"{args.workload}.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    # warm-up is the first golden round, whose seeded ops meet their goldens
    warmup = workloads.build(args.workload, workloads.GOLDEN_SEED, rounds=1)[0]
    warm = run_ops(warmup, golden)
    if tracer:
        tracer.uninstall()
    # the input pool is benchmark data: keep the collector from walking it
    # during the timed loop, so the loop's GC work is the program's own
    gc.collect()
    gc.freeze()
    # the set-up slices' own CPU time does not count
    setup_cpu = time.process_time() - sum(meter.slices)
    for _ in range(SETUP_SLICES):
        meter.take()
    out = {
        "setup_cpu_s": setup_cpu,
        "setup_s": setup_cpu / meter.slowness(),
        "warmup_errors": unexpected(warmup, warm),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    # the traced run splits its time between an untraced and a traced pass
    # over the same ops; the ratio of the two is the tracing overhead
    ops, results, round_s, round_wall_s, slowness = timed_loop(
        pool, golden, args.seconds / (2 if args.trace else 1))
    out.update(
        round_s=round_s,
        round_wall_s=round_wall_s,
        slowness=slowness,
        latency_s=[t for t, _, _ in results],
        ok=[ok for _, ok, _ in results],
        errors=sorted({f"{op.key}: {err}" for op, (_, _, err) in zip(ops, results) if err}),
        unexpected=unexpected(ops, results),
    )
    if tracer:
        tracer.install()
        try:
            traced = run_ops(ops, golden, tracer)
        finally:
            tracer.uninstall()
        out["traced_ok"] = [ok for _, ok, _ in traced]
        out["layers"] = tracer.metrics(
            [t for t, _, _ in traced], [op.kind for op in ops], sum(out["latency_s"])
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
