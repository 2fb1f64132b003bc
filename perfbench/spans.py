"""Span tracing of quiverlab's public functions, installed from outside.

Each listed function is replaced by a wrapper that records one span per
call: function, start, end, parent span and op id. Modules import these
functions with ``from .x import f``, so the wrapper is rebound in every
``quiverlab.*`` namespace that holds the original object; methods are
patched on their class. Spans are kept in flat arrays in memory and
reduced to metrics when the traced pass ends.

Spans are timed on the process CPU clock, unscaled. A span's self time is
its duration minus the durations of its child spans, so Fraction and
stdlib work counts toward the calling function.
Spans outside any op (set-up, warm-up) carry op id -1. They count in the
per-function rows and the useful-work ratios; the per-layer rows,
``bench.self_s`` and the scaling rows cover the ops only, so the layer self
times and ``bench.self_s`` add up to the traced op time.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from array import array

LAYERS = {
    "exactlinalg": (
        "reduce_span", "kernel_basis", "rank", "solve", "span_sum", "span_intersect",
        "preimage_span", "image_span", "in_span", "charpoly", "Mat.matmul",
    ),
    "stability": (
        "generated_closure", "cogenerated_core", "stability_report",
        "destabilizer_search", "verify_witness", "check_stability_transfer",
    ),
    "reps": (
        "moment_map", "p_map", "check_compare_moment", "flag_check",
        "tau_charpoly", "gauge_transform",
    ),
    "surgery": ("build_aux", "lift_stability"),
    "torus": ("fixed_components", "FixedCandidate.nonzero_tangent"),
    "envelopes": (
        "torus_roots", "chambers", "feasible_interior", "faces",
        "triangle_split_check", "split_N",
    ),
    "sampling": ("random_representation", "random_leg_stable_aux", "random_scalar_moment_leg"),
    "jsonio": ("quiver_from_json", "rep_from_json", "dumps_canonical"),
    "cli": ("main",),
    "quiver": ("Quiver.arrow",),
}

FUNCS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

JORDAN_ROWS = (2, 3, 4, 5, 6)
ROOT_ROWS = (6, 7, 8, 9, 10)


def _fixed_components_assignments(q, split, dims, act, sigma, window=None) -> int:
    """Gradings fixed_components enumerates before it dedups and drops."""
    if act.rank == 0 or not any(sigma):
        return 1
    if window is None:
        vmax = max(dims.v[n] for n in q.nodes) if q.nodes else 1
        window = (-vmax, vmax)
    chars = (window[1] - window[0] + 1) ** act.rank
    return math.prod(math.comb(chars + dims.v[n] - 1, dims.v[n]) for n in q.nodes)


def metric_names() -> list[str]:
    names = []
    for fid in FUNCS:
        names += [f"{fid}.calls", f"{fid}.self_s"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share"]
    names += [
        "bench.self_s",
        "envelopes.chambers.feasible_ratio",
        "envelopes.faces.feasible_ratio",
        "exactlinalg.reduce_span.rank_ratio",
        "stability.destabilizer_search.hit_ratio",
        "torus.fixed_components.kept_ratio",
    ]
    names += [f"stability.transfer.jordan{v}.p50_ms" for v in JORDAN_ROWS]
    names += [f"envelopes.chambers.rank3_roots{k}.p50_ms" for k in ROOT_ROWS]
    names.append("trace.overhead_ratio")
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


class Tracer:
    """Records spans for every listed function while installed."""

    def __init__(self):
        self.fid = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op = array("i")
        self.size_in = array("q")   # input measure, for the useful-work ratios
        self.size_out = array("q")  # output measure
        self.stack = [-1]
        self.op_id = -1
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"quiverlab.{layer}")
        modules = [m for name, m in sys.modules.items()
                   if name == "quiverlab" or name.startswith("quiverlab.")]
        for i, fid in enumerate(FUNCS):
            layer, _, attr = fid.partition(".")
            owner = sys.modules[f"quiverlab.{layer}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(i, fid, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(i, fid, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    def _wrap(self, index: int, fid: str, fn):
        measure_in, measure_out = _MEASURES.get(fid, (None, None))
        fid_a, parent_a, start_a, end_a = self.fid, self.parent, self.start, self.end
        op_a, in_a, out_a, stack = self.op, self.size_in, self.size_out, self.stack
        clock = time.process_time_ns
        tracer = self

        def traced(*args, **kwargs):
            span = len(fid_a)
            fid_a.append(index)
            parent_a.append(stack[-1])
            op_a.append(tracer.op_id)
            in_a.append(measure_in(*args, **kwargs) if measure_in else 0)
            out_a.append(0)
            end_a.append(0)
            stack.append(span)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[span] = clock()
                stack.pop()
            if measure_out:
                out_a[span] = measure_out(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reduction ----------------------------------------------------------

    def metrics(self, op_times: list, op_kinds: list, untraced_total: float) -> dict:
        """Per-layer metrics over the traced ops.

        ``op_times`` are the traced op durations in seconds, ``op_kinds``
        the op kind per op id and ``untraced_total`` the untraced duration
        of the same ops.
        """
        n = len(self.fid)
        dur = [(self.end[i] - self.start[i]) * 1e-9 for i in range(n)]
        self_t = list(dur)
        root_total = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= dur[i]
            elif self.op[i] >= 0:
                root_total += dur[i]
        calls = [0] * len(FUNCS)
        self_s = [0.0] * len(FUNCS)
        op_self_s = [0.0] * len(FUNCS)
        for i in range(n):
            calls[self.fid[i]] += 1
            self_s[self.fid[i]] += self_t[i]
            if self.op[i] >= 0:
                op_self_s[self.fid[i]] += self_t[i]
        index = {fid: i for i, fid in enumerate(FUNCS)}
        op_total = sum(op_times)

        out = {}
        for fid, i in index.items():
            out[f"{fid}.calls"] = calls[i]
            out[f"{fid}.self_s"] = self_s[i]
        for layer, fns in LAYERS.items():
            total = sum(op_self_s[index[f"{layer}.{fn}"]] for fn in fns)
            out[f"{layer}.self_s"] = total
            out[f"{layer}.share"] = total / op_total if op_total else 0.0
        out["bench.self_s"] = op_total - root_total

        def under(parent_fid, child_fid):
            p, c = index[parent_fid], index[child_fid]
            return sum(1 for i in range(n)
                       if self.fid[i] == c and self.parent[i] >= 0 and self.fid[self.parent[i]] == p)

        def total_of(fid, arr):
            k = index[fid]
            return sum(arr[i] for i in range(n) if self.fid[i] == k)

        def ratio(num, den):
            return num / den if den else 0.0

        out["envelopes.chambers.feasible_ratio"] = ratio(
            total_of("envelopes.chambers", self.size_out),
            under("envelopes.chambers", "envelopes.feasible_interior"))
        out["envelopes.faces.feasible_ratio"] = ratio(
            total_of("envelopes.faces", self.size_out),
            under("envelopes.faces", "envelopes.feasible_interior"))
        out["exactlinalg.reduce_span.rank_ratio"] = ratio(
            total_of("exactlinalg.reduce_span", self.size_out),
            total_of("exactlinalg.reduce_span", self.size_in))
        out["stability.destabilizer_search.hit_ratio"] = ratio(
            total_of("stability.destabilizer_search", self.size_out),
            calls[index["stability.destabilizer_search"]])
        out["torus.fixed_components.kept_ratio"] = ratio(
            total_of("torus.fixed_components", self.size_out),
            total_of("torus.fixed_components", self.size_in))

        def kind_p50_ms(fid, kind):
            k = index[fid]
            times = [dur[i] for i in range(n)
                     if self.fid[i] == k and self.op[i] >= 0 and op_kinds[self.op[i]] == kind]
            return statistics.median(times) * 1e3 if times else 0.0

        for v in JORDAN_ROWS:
            out[f"stability.transfer.jordan{v}.p50_ms"] = kind_p50_ms(
                "stability.check_stability_transfer", f"transfer:jordan{v}")
        for k in ROOT_ROWS:
            out[f"envelopes.chambers.rank3_roots{k}.p50_ms"] = kind_p50_ms(
                "envelopes.chambers", f"rank3:{k}")
        out["trace.overhead_ratio"] = ratio(op_total, untraced_total)
        return out


def _rows_in(vectors, dim):
    return len(vectors)


_MEASURES = {
    "exactlinalg.reduce_span": (_rows_in, len),
    "envelopes.chambers": (None, len),
    "envelopes.faces": (None, len),
    "stability.destabilizer_search": (None, lambda w: int(w is not None)),
    "torus.fixed_components": (_fixed_components_assignments, len),
}
