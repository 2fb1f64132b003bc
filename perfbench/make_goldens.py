"""Regenerate the stored goldens from the current program.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_goldens.py

Run from the checkout root. Runs every op of the input pool once at
workloads.GOLDEN_SEED and writes the digest of each op's result to
perfbench/goldens/<workload>.json. An op that fails its property check
stops the script: a golden is only recorded for a correct result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    for name in ("stability", "chambers", "cli"):
        golden = {}
        for op in (op for r in workloads.build(name, workloads.GOLDEN_SEED) for op in r):
            if op.fn is workloads.op_cli_error:
                continue
            ok, payload = op.fn(*op.args)
            if not ok:
                raise SystemExit(f"{name}: {op.key} fails its property check")
            golden[op.key] = workloads.digest(payload)
        path = HERE / "goldens" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(HERE.parent)}: {len(golden)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
