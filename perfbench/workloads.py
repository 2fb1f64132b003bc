"""The four benchmark workloads: their inputs, their ops and each op's gate.

An op is one closed-loop request. Its function runs the program calls that
make up the op, including the property checks the op carries, and returns
``(ok, payload)``: ``ok`` is the property verdict and ``payload`` a
canonical value whose digest is compared against the stored golden.

Inputs are generated from the workload seed in set-up, as a pool of whole
rounds; the timed loop cycles over the pool. A round holds every op kind
of the workload in a fixed order, so the mix is the same at any seed.
Set-up also runs the first round of GOLDEN_SEED as its warm-up, so the ops
drawn from a seed meet their stored goldens whatever the run's seed.
Program functions are always reached through their module, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from quiverlab import cli, corpus, envelopes, exactlinalg, reps, sampling, stability, surgery, torus
from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver, node_key

# Goldens are stored for this seed; ops whose inputs do not depend on the
# seed (corpus problems, fixed CLI argv) match them in every round.
GOLDEN_SEED = 0

JORDAN_SIZES = (2, 3, 4, 5, 6)
# Root counts of the random arrangements in one chambers round. The two
# 10-root draws put the latency tail (10 ops beyond it) inside their
# cluster, not on its few lowest draws; the three cheap 6-root draws put the
# median op on the fixed loop2 corpus problem, not in the wide 7-root
# cluster. A 20 s run then holds about 100 ops.
ARRANGEMENT_SIZES = (6, 6, 6, 7, 8, 9, 10, 10)
SOUNDNESS_QUIVERS = ("jordan2", "jordan3", "a2sym", "loop2")
MIXED_QUIVERS = ("a2sym", "loop2")

# Rounds of inputs made in set-up; the timed loop wraps around the pool.
# Sized so a 20 s run at the time of writing repeats few inputs, since a
# latency tail over recurring inputs is set by the seed's few dearest draws.
# moment's inputs cost a third of its ops to make, so its pool recurs about
# four times a run rather than growing its set-up.
POOL_ROUNDS = {"stability": 48, "chambers": 24, "moment": 30, "cli": 100}


@dataclass
class Op:
    key: str            # identity of the op's input; golden lookup key
    kind: str           # grouping for the per-kind rows
    fn: Callable
    args: tuple
    known_defect: str | None = None  # exception the op is recorded to fail with

    def failure_expected(self, error: str) -> bool:
        return self.known_defect is not None and error.startswith(self.known_defect + ":")


def digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# stability

def _jordan(v: int):
    # built here rather than through the corpus' private helper, so a
    # refactor of the corpus cannot change what the benchmark measures
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    return q, ArrowSplit((), ("eps",)), DimData({"0": v}, {"0": 1}, {"0": Fraction(1)})


def _witness(w):
    if w is None:
        return None
    return (
        tuple(sorted((node_key(n), w.dims[n], w.basis[n]) for n in w.basis)),
        w.pairing,
        w.includes_framing,
    )


def op_transfer(aux, rep, t, xi):
    rpt = stability.check_stability_transfer(aux, rep, t, xi)
    payload = (rpt.lhs_stable, rpt.rhs_stable, _witness(rpt.lhs_witness), _witness(rpt.rhs_witness))
    return rpt.inclusion_ok, payload


def _witness_ok(q, dims, rep, theta, w) -> bool:
    return stability.verify_witness(q, dims, rep, theta, w) and w.pairing > 0


def op_soundness(q, dims, rep, theta, search_seed):
    stable, w = stability.stability_report(q, dims, rep, theta)
    found = stability.destabilizer_search(q, dims, rep, theta, trials=30, seed=search_seed)
    if stable:
        ok = w is None and found is None
    else:
        ok = w is not None and _witness_ok(q, dims, rep, theta, w)
    if found is not None:
        ok = ok and not stable and _witness_ok(q, dims, rep, theta, found)
    return ok, (stable, _witness(w), _witness(found))


def op_mixed(q, dims, rep, theta, search_seed):
    found = stability.destabilizer_search(q, dims, rep, theta, trials=30, seed=search_seed)
    ok = found is None or _witness_ok(q, dims, rep, theta, found)
    return ok, _witness(found)


def build_stability(seed: int, rounds: int) -> list:
    entries = corpus.corpus()
    transfer = [(f"jordan{v}", *_jordan(v)) for v in JORDAN_SIZES]
    transfer += [(n, entries[n].quiver, entries[n].split, entries[n].dims) for n in MIXED_QUIVERS]
    auxes = [(name, q, surgery.build_aux(q, split, dims)) for name, q, split, dims in transfer]
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        ops = []
        for name, q, aux in auxes:
            rep, t = sampling.random_leg_stable_aux(rng, aux)
            xi = {n: Fraction(1) for n in q.nodes}
            ops.append(Op(f"transfer/{name}/s{seed}/r{r}", f"transfer:{name}", op_transfer, (aux, rep, t, xi)))
        for name in SOUNDNESS_QUIVERS:
            e = entries[name]
            for variant, sign in itertools.product(("plain", "b0", "a0"), (1, -1)):
                rep = sampling.random_representation(rng, e.quiver, e.dims)
                zeroed = {"b0": rep.b, "a0": rep.a}.get(variant, {})
                for node in list(zeroed):
                    zeroed[node] = 0 * zeroed[node]
                theta = {n: Fraction(sign * rng.randint(1, 3)) for n in e.quiver.nodes}
                key = f"soundness/{name}/{variant}{'+' if sign > 0 else '-'}/s{seed}/r{r}"
                args = (e.quiver, e.dims, rep, theta, rng.randrange(2**31))
                ops.append(Op(key, f"soundness:{name}", op_soundness, args))
        for name in MIXED_QUIVERS:
            e = entries[name]
            first, second = e.quiver.nodes
            for sign in (1, -1):
                rep = sampling.random_representation(rng, e.quiver, e.dims)
                theta = {first: Fraction(sign * rng.randint(1, 3)), second: Fraction(-sign * rng.randint(1, 3))}
                key = f"mixed/{name}/{'+-' if sign > 0 else '-+'}/s{seed}/r{r}"
                args = (e.quiver, e.dims, rep, theta, rng.randrange(2**31))
                ops.append(Op(key, f"mixed:{name}", op_mixed, args))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# chambers

def _certified(roots, signs, point) -> bool:
    return all(
        (exactlinalg.dot(r, point) > 0) == (s > 0) for r, s in zip(roots, signs)
    )


def _face_certified(chamber, face) -> bool:
    for i, r in enumerate(chamber.roots):
        p = exactlinalg.dot(r, face.point)
        if i in face.zero_set:
            if p != 0:
                return False
        elif (p > 0) != (chamber.signs[i] > 0):
            return False
    return True


def op_corpus_problem(e):
    cands = torus.fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
    roots = envelopes.torus_roots(cands)
    chs = envelopes.chambers(roots, e.action.rank)
    dim_x = surgery.dim_quiver_variety(e.quiver, e.dims)
    ok = bool(cands)
    for ch in chs:
        ok = ok and _certified(ch.roots, ch.signs, ch.point)
        for f in envelopes.faces(ch):
            ok = ok and _face_certified(ch, f)
            for cand in cands:
                ok = ok and envelopes.triangle_split_check(cand, ch, f).ok
        for cand in cands:
            ns = envelopes.split_N(cand, ch.point)
            ok = ok and ns.rank_plus == ns.rank_minus
            ok = ok and ns.rank_plus + ns.rank_minus + cand.dim_fixed() == dim_x
    return ok, (tuple(c.name() for c in cands), tuple(ch.signs for ch in chs))


def op_arrangement(roots, rank, pick):
    """Chambers of the arrangement, then the faces of one of them.

    Faces of every chamber would cost seconds per op at 9 and 10 roots, too
    few ops for a latency tail within a run; one chamber's faces still pay
    for the arrangement's whole flat lattice.
    """
    chs = envelopes.chambers(roots, rank)
    ok = bool(chs) and all(_certified(ch.roots, ch.signs, ch.point) for ch in chs)
    ch = chs[int(pick * len(chs))]
    fs = envelopes.faces(ch)
    ok = ok and all(_face_certified(ch, f) for f in fs)
    return ok, (tuple(c.signs for c in chs), ch.signs, tuple(tuple(sorted(f.zero_set)) for f in fs))


def _box_roots(rank: int) -> list:
    """Primitive vectors of {-1,0,1}^rank, one per sign class (13 in rank 3)."""
    found = {
        envelopes.primitive_up_to_sign(v)
        for v in itertools.product((-1, 0, 1), repeat=rank)
    }
    found.discard(None)
    return sorted(found)


def build_chambers(seed: int, rounds: int) -> list:
    entries = corpus.corpus()
    pool = _box_roots(3)
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        ops = []
        for j, (name, k) in enumerate(itertools.zip_longest(corpus.ACTION_ENTRIES, ARRANGEMENT_SIZES)):
            if name is not None:
                ops.append(Op(f"corpus/{name}", f"corpus:{name}", op_corpus_problem, (entries[name],)))
            if k is not None:
                roots = tuple(sorted(rng.sample(pool, k)))
                args = (roots, 3, rng.random())
                ops.append(Op(f"rank3/{k}/s{seed}/r{r}/{j}", f"rank3:{k}", op_arrangement, args))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# moment

# One moment op checks this many samples of one kind. A single sample costs
# 0.2 to 6 ms, so light that the median op would move with every scheduling
# hiccup; eight samples put the median op inside a cluster of kinds that cost
# about the same (flag:3, tau:jordan2, compare:jordan3).
SAMPLES_PER_OP = 8


def op_compare(aux, samples):
    return all(reps.check_compare_moment(aux, rep, t) for rep, t in samples), None


def op_flag(n, samples):
    return all(reps.flag_check(n, cs, ds, t).ok for cs, ds, t in samples), None


def op_tau(q, split, dims, samples):
    ok = True
    for rep, g in samples:
        base = reps.tau_charpoly(q, split, dims, rep)
        moved = reps.tau_charpoly(q, split, dims, reps.gauge_transform(q, dims, rep, g))
        ok = ok and moved == base
    return ok, None


FLAG_SIZES = (2, 3, 4, 5)


# tau runs on the entries with a loop, whose loop polynomials are part of
# the invariant; the round then has as many kinds cheaper than its middle
# cluster as dearer
TAU_QUIVERS = ("jordan2", "jordan3", "loop2")


def build_moment(seed: int, rounds: int) -> list:
    entries = corpus.corpus()
    names = corpus.MOMENT_QUIVERS
    auxes = {n: surgery.build_aux(entries[n].quiver, entries[n].split, entries[n].dims) for n in names}
    rng = random.Random(seed)
    each = range(SAMPLES_PER_OP)
    out = []
    for r in range(rounds):
        ops = []
        for n in names:
            aux = auxes[n]
            samples = [
                (sampling.random_representation(rng, aux.quiver, DimData(aux.v, aux.d)),
                 {loop: sampling.random_fraction(rng) for loop in aux.add_split.loops})
                for _ in each
            ]
            ops.append(Op(f"compare/{n}/s{seed}/r{r}", f"compare:{n}", op_compare, (aux, samples)))
        for size in FLAG_SIZES:
            samples = [(*sampling.random_scalar_moment_leg(rng, size), sampling.random_fraction(rng)) for _ in each]
            ops.append(Op(f"flag/{size}/s{seed}/r{r}", f"flag:{size}", op_flag, (size, samples)))
        for n in TAU_QUIVERS:
            e = entries[n]
            samples = [
                (sampling.random_representation(rng, e.quiver, e.dims), sampling.random_gauge(rng, e.quiver, e.dims))
                for _ in each
            ]
            ops.append(Op(f"tau/{n}/s{seed}/r{r}", f"tau:{n}", op_tau, (e.quiver, e.split, e.dims, samples)))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# cli

def run_cli(argv):
    """One in-process ``quiverlab.cli.main(argv)``; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def op_cli(argv):
    code, stdout, stderr = run_cli(argv)
    ok = code == 0 and "Traceback" not in stderr
    return ok, (code, hashlib.sha256(stdout.encode()).hexdigest())


def op_cli_error(argv):
    # an exception escaping main is a traceback and fails the op
    code, _, stderr = run_cli(argv)
    return code == cli.EXIT_INPUT and "Traceback" not in stderr, None


FIXED_ARGV = (
    ("analyze", "inputs/jordan2.json"),
    ("analyze", "inputs/loop2.json", "--format", "json"),
    ("aux", "inputs/jordan3.json"),
    ("aux", "inputs/loop2.json"),
    ("cb", "inputs/a2sym.json"),
    ("cb", "inputs/framed2.json"),
    ("fixed", "inputs/a2sym.json", "--sigma", "1", "--window=-2..2"),
    ("fixed", "inputs/loop2.json", "--format", "json"),
    ("chambers", "inputs/framed2.json"),
    ("stab-table", "inputs/framed2.json", "--xi", "1,3"),
    ("stab-table", "inputs/loop2.json", "--format", "json"),
    ("tau", "inputs/jordan2_rep.json"),
    ("export", "inputs/jordan2.json", "--what", "aux"),
    ("export", "inputs/a2sym.json", "--what", "fixed"),
)

THETA_ZERO_DEN = "perfbench/data/theta_zero_den.json"
# (argv, the exception a known defect lets escape main, or None)
ERROR_ARGV = (
    (("analyze", "perfbench/data/no_such_file.json"), None),
    (("analyze", "perfbench/data/bad_syntax.json"), None),
    (("stability", "inputs/jordan2.json"), None),
    (("fixed", "inputs/a2sym.json", "--window", "-2..2"), None),
    # a root shorter than the rank is indexed past its end
    (("chambers", "--roots", "1,0;1"), "IndexError"),
    # theta "1/0" is parsed without a zero-denominator check
    (("analyze", THETA_ZERO_DEN), "ZeroDivisionError"),
    (("stab-table", THETA_ZERO_DEN), "ZeroDivisionError"),
)


def _roots_text(rng, count: int) -> str:
    pool = _box_roots(2) + [(1, 2), (2, 1), (1, -2), (2, -1)]
    return ";".join(",".join(map(str, r)) for r in rng.sample(pool, count))


def build_cli(seed: int, rounds: int) -> list:
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        seeded = (
            ("chambers", "--roots", _roots_text(rng, 4)),
            ("export", "--what", "chambers", "--roots", _roots_text(rng, 3)),
            # "--theta -1/4" as two words is taken for an option by argparse
            ("stability", "inputs/jordan2_rep.json",
             f"--theta={Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))}",
             "--seed", str(rng.randrange(1000))),
            ("moment-check", "inputs/jordan2.json", "--samples", "3", "--seed", str(rng.randrange(1000))),
        )
        ops = [Op(" ".join(a), "cli:" + a[0], op_cli, (a,)) for a in FIXED_ARGV + seeded]
        ops += [
            Op(" ".join(a), "cli-error:" + a[0], op_cli_error, (a,), known_defect=defect)
            for a, defect in ERROR_ARGV
        ]
        out.append(ops)
    return out


MAKERS = {
    "stability": build_stability,
    "chambers": build_chambers,
    "moment": build_moment,
    "cli": build_cli,
}


def build(name: str, seed: int, rounds: int | None = None) -> list:
    """The input pool of a workload: a list of rounds, each a list of Op."""
    return MAKERS[name](seed, POOL_ROUNDS[name] if rounds is None else rounds)
