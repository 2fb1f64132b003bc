"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the work one CPU second buys drifts by tens of percent,
in stretches of seconds to minutes (another tenant on the sibling
hyperthread, a changed clock), and process CPU time does not see it. The
worker runs one short slice of this kernel after every CPU_PER_SLICE_S of
ops, so the slices sample the host's speed evenly over the timed loop, and
divides its CPU times by the slices' mean over REFERENCE_SLICE_S. The
kernel is stdlib only and never calls quiverlab, so a change to the program
moves the scaled times exactly as it moves the raw ones. It runs with the
collector off, so the program's heap does not bill its collections to it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Mean CPU time of one slice on the machine the benchmark was written on
# (2-vCPU Intel Xeon VM, Python 3.11.7). It only sets the scale: scaled
# times read in that machine's seconds.
REFERENCE_SLICE_S = 0.0068
# CPU seconds of ops between two slices in the timed loop
CPU_PER_SLICE_S = 0.15

SIZE = 7
_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(SIZE))
    for i in range(SIZE)
)


def _rref_rank(rows: list) -> int:
    """Exact Gauss-Jordan elimination, the kind of work the program does."""
    rank = 0
    for col in range(SIZE):
        pivot = next((r for r in range(rank, SIZE) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(SIZE):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_slice() -> float:
    """CPU seconds of one slice of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(4):
            _rref_rank([list(row) for row in _MATRIX])
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Slices taken between ops, each weighted by the op time before it."""

    def __init__(self):
        self.slices = []
        self.weights = []
        self.pending = 0.0

    def after_op(self, cpu_s: float):
        self.pending += cpu_s
        if self.pending >= CPU_PER_SLICE_S:
            self.take(self.pending)

    def take(self, weight: float = 1.0):
        self.slices.append(reference_slice())
        self.weights.append(weight)
        self.pending = 0.0

    def close(self):
        """Cover the ops run since the last slice."""
        if self.pending > 0 or not self.slices:
            self.take(self.pending or 1.0)

    def slowness(self) -> float:
        """Weighted mean slice over REFERENCE_SLICE_S: above 1 is slower."""
        mean = sum(s * w for s, w in zip(self.slices, self.weights)) / sum(self.weights)
        return mean / REFERENCE_SLICE_S
