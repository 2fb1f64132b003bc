"""Command-line front end.

Subcommands: analyze, aux, cb, fixed, chambers, stab-table, triangle,
stability, moment-check, tau, verify, export. Exit codes: 0 on success,
1 on verification failure, 2 on input errors. All sampled output embeds
the seed it was produced from.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import verify
from .corpus import TRANSFER_QUIVERS, corpus
from .envelopes import chambers, stab_degree_table, torus_roots
from .exactlinalg import frac
from .jsonio import (
    RecordTexts,
    _object,
    dumps_canonical,
    frac_to_json,
    quiver_from_json,
    quiver_to_json,
    rep_from_json,
    value_text,
)
from .quiver import DimData, node_key
from .reps import tau_charpoly, validate_shapes
from .stability import (
    MixedSignTheta,
    destabilizer_search,
    stability_report,
    verify_witness,
)
from .surgery import (
    build_add,
    build_aux,
    build_rem,
    crawley_boevey,
    default_delta,
    dim_quiver_variety,
    dim_universal_nakajima,
    half_quiver,
    hgamma_data,
    lift_stability,
)
from .torus import fixed_components

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _load_doc(path: str) -> dict:
    if path is None:
        raise InputError("an input file is required")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(str(e))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}")


def _parse_problem(doc: dict, path: str, symmetric: bool):
    """quiver_from_json on doc, with its errors as input errors. With
    symmetric, a quiver without a doubled-pair split is refused: every
    command that builds on the split needs one."""
    try:
        problem = quiver_from_json(doc)
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{path}: {e}")
    if symmetric and problem[1] is None:
        raise InputError(f"{path}: the quiver is not symmetric")
    return problem


def _load_problem(path: str, symmetric: bool = True):
    return _parse_problem(_load_doc(path), path, symmetric)


def _emit(payload: dict, fmt: str, lines=None):
    if fmt == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        print(*lines, sep="\n")


def _parse_vector(text: str, flag: str, size: int, entry=int) -> tuple:
    try:
        vec = tuple(entry(p) for p in text.split(","))
    except ValueError:
        kind = "integers" if entry is int else "rationals"
        raise InputError(f"{flag} needs comma-separated {kind}, got {text!r}")
    if len(vec) != size:
        raise InputError(f"{flag} needs {size} entries, got {len(vec)}")
    return vec


def _check_positive(value: int, flag: str):
    if value < 1:
        raise InputError(f"{flag} needs a positive integer, got {value}")


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(p) for p in text.split(".."))
    except ValueError:
        raise InputError(f"--window needs integers lo..hi, got {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# analyze / surgery commands

def cmd_analyze(args) -> int:
    q, split, dims, _, _ = _load_problem(args.file, symmetric=False)
    payload: dict = {
        "adjacency": [list(r) for r in q.adjacency_matrix()],
        "cartan": [list(r) for r in q.cartan_matrix()],
        "symmetric": q.is_symmetric(),
    }
    lines = [
        f"nodes: {', '.join(node_key(n) for n in q.nodes)}",
        f"adjacency: {payload['adjacency']}",
        f"cartan: {payload['cartan']}",
        f"symmetric: {payload['symmetric']}",
    ]
    if not q.is_symmetric():
        lines.append("asymmetric adjacency: leg construction skipped")
        payload["note"] = "asymmetric adjacency: leg construction skipped"
        _emit(payload, args.format, lines)
        return EXIT_OK
    if dims is not None:
        aux = build_aux(q, split, dims)
        hq, hdims = half_quiver(aux)
        dim_x = dim_quiver_variety(q, dims)
        dim_n = dim_universal_nakajima(hq, hdims)
        hg = hgamma_data(q, split, dims)
        payload.update(
            {
                "dim_X": dim_x,
                "dim_H": hg.dim_h,
                "gamma_factors": list(hg.gamma_factors),
                "dim_L": hg.dim_l,
                "dim_N_aux": dim_n,
                "fiber_dim": dim_x - hg.dim_h,
                "delta_default": frac_to_json(default_delta(aux)),
                "consistency": f"{dim_x} = {dim_n} + {hg.dim_l}",
                "consistency_ok": dim_x == dim_n + hg.dim_l,
            }
        )
        lines += [
            f"dim X = {dim_x}",
            f"dim H = {hg.dim_h}, Gamma = {' x '.join(f'S_{m}' for m in hg.gamma_factors)}, dim L = {hg.dim_l}",
            f"dim N(aux) = {dim_n}",
            f"fiber dim (dim X - dim H) = {payload['fiber_dim']}",
            f"delta default = {payload['delta_default']}",
            f"consistency: {payload['consistency']} ({'ok' if payload['consistency_ok'] else 'MISMATCH'})",
        ]
    _emit(payload, args.format, lines)
    return EXIT_OK if payload.get("consistency_ok", True) else EXIT_FAIL


def _check_theta_nodes(path: str, q, theta: dict):
    missing = [node_key(n) for n in q.nodes if n not in theta]
    if missing:
        raise InputError(f"{path}: 'theta' needs an entry for every node, missing {missing}")


def _surgery_payload(args, what: str) -> dict:
    q, split, dims, _, _ = _load_problem(args.file)
    if what in ("aux", "cb") and dims is None:
        raise InputError("dimension data required")
    if what == "add":
        aq, asplit = build_add(q, split)
        return quiver_to_json(aq, asplit, dims)
    if what == "rem":
        rq, rsplit = build_rem(q, split)
        return quiver_to_json(rq, rsplit, dims)
    if what == "aux":
        aux = build_aux(q, split, dims)
        doc = quiver_to_json(aux.quiver, aux.split, DimData(aux.v, aux.d))
        doc["leg_index"] = {
            str(l): [node_key(n) for n in chain] for l, chain in aux.leg_index.items()
        }
        doc["new_node_total"] = aux.new_node_total
        doc["delta_default"] = frac_to_json(default_delta(aux))
        return doc
    # argparse choices leave "cb" as the last artifact
    if not dims.theta:
        raise InputError("theta required for the framing absorption")
    _check_theta_nodes(args.file, q, dims.theta)
    cb = crawley_boevey(q, split, dims)
    doc = quiver_to_json(cb.quiver, cb.split)
    doc["v"] = {node_key(n): cb.v[n] for n in cb.quiver.nodes}
    doc["theta"] = {node_key(n): frac_to_json(cb.theta[n]) for n in cb.quiver.nodes}
    return doc


def cmd_surgery(args) -> int:
    _emit(_surgery_payload(args, args.command), "json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# torus commands

def _candidates_for(args):
    q, split, dims, action, sigma_doc = _load_problem(args.file)
    if dims is None:
        raise InputError("dimension data required")
    if action is None:
        raise InputError("no torus action in the input file")
    # --sigma and --xi are parsed against action.rank, so it is checked first
    action.validate(q, split, dims)
    sigma = _parse_vector(args.sigma, "--sigma", action.rank) if args.sigma is not None else sigma_doc
    if sigma is None:
        raise InputError("no cocharacter: give --sigma or a 'sigma' entry")
    window = _parse_window(args.window) if args.window is not None else None
    cands = fixed_components(q, split, dims, action, sigma, window)
    return q, split, dims, action, sigma, cands


def _candidate_doc(cand) -> dict:
    doc = quiver_to_json(cand.quiver, cand.split, DimData(cand.v, cand.d))
    doc["name"] = cand.name()
    doc["dim_fixed"] = cand.dim_fixed()
    doc["tangent"] = [
        {"char": list(ch), "mult": m} for ch, m in sorted(cand.tangent().items())
    ]
    # fixed_components refuses any action whose candidates would not be
    # self-dual (its docstring), so each one it returns is
    doc["self_dual"] = True
    return doc


def _fixed_payload(cands) -> dict:
    return {"count": len(cands), "candidates": [_candidate_doc(c) for c in cands]}


def cmd_fixed(args) -> int:
    *_, cands = _candidates_for(args)
    # text output prints names and dim F alone, so it derives no quiver
    if args.format == "json":
        payload, lines = _fixed_payload(cands), None
    else:
        payload, lines = None, [f"{len(cands)} candidates"] + [
            f"  {c.name()}  dimF={c.dim_fixed()}" for c in cands
        ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _roots_for(args):
    if args.roots is not None:
        # the roots are the whole input, so any other would be dropped
        given = [name for name, value in (
            ("an input file", args.file), ("--sigma", args.sigma), ("--window", args.window)
        ) if value is not None]
        if given:
            raise InputError(f"--roots cannot be combined with {' or '.join(given)}")
        try:
            roots = tuple(
                tuple(int(x) for x in part.split(",")) for part in args.roots.split(";")
            )
        except ValueError:
            raise InputError(f"--roots needs integer coordinates, got {args.roots!r}")
        return roots, len(roots[0])
    q, split, dims, action, sigma, cands = _candidates_for(args)
    return torus_roots(cands), action.rank


def _chambers_payload(args) -> dict:
    roots, rank = _roots_for(args)
    return {
        "roots": [list(r) for r in roots],
        "chambers": [
            {"signs": list(c.signs), "point": [frac_to_json(x) for x in c.point]}
            for c in chambers(roots, rank)
        ],
    }


def cmd_chambers(args) -> int:
    payload = _chambers_payload(args)
    chs = payload["chambers"]
    payload["count"] = len(chs)
    lines = [f"{len(chs)} chambers over {len(payload['roots'])} roots"] + [
        f"  signs={tuple(c['signs'])} point=({', '.join(c['point'])})" for c in chs
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


# the keys of a stab-table pair record, sorted
_PAIR_KEYS = ("fiber_product_bound", "first", "off_diagonal_bound", "second")


def _stab_table_payload(table, xi) -> dict:
    # one pair record per itertools.combinations(table.rows, 2), handed to
    # the writer as value texts: each row name and each distinct
    # dim F + dim F' of table.bounds is encoded once, and no pair is a dict.
    # The pairs are a generator, so the payload is written once.
    bounds = {
        s: (value_text(frac_to_json(fiber)), value_text(frac_to_json(off)))
        for s, (off, fiber) in table.bounds.items()
    }
    named = [(value_text(r.name), r.dim_fixed) for r in table.rows]
    pairs = (
        (fiber, first, off, second)
        for (first, d), (second, d2) in itertools.combinations(named, 2)
        for fiber, off in (bounds[d + d2],)
    )
    return {
        "dim_ambient": table.dim_ambient,
        "dim_base": table.dim_base,
        "xi": list(xi),
        # vars(), not dataclasses.asdict: asdict deep-copies every value
        "rows": [
            {**vars(r), "attracting_dim": frac_to_json(r.attracting_dim)}
            for r in table.rows
        ],
        "pairs": RecordTexts(_PAIR_KEYS, pairs),
    }


def cmd_stab_table(args) -> int:
    q, split, dims, action, sigma, cands = _candidates_for(args)
    xi = _parse_vector(args.xi, "--xi", action.rank) if args.xi is not None else sigma
    table = stab_degree_table(q, split, dims, cands, xi)
    # each format builds only what it prints
    if args.format == "json":
        payload, lines = _stab_table_payload(table, xi), None
    else:
        payload, lines = None, [f"dim X = {table.dim_ambient}"] + [
            f"  {r.name}: dimF={r.dim_fixed} rankN-={r.rank_minus} "
            f"attr={frac_to_json(r.attracting_dim)} consistent={r.consistent}"
            for r in table.rows
        ]
    _emit(payload, args.format, lines)
    return EXIT_OK if all(r.consistent for r in table.rows) else EXIT_FAIL


def cmd_triangle(args) -> int:
    q, split, dims, action, sigma, cands = _candidates_for(args)
    records = (
        (rpt.ok, None if rpt.ok else f"FAIL {cand.name()} signs={ch.signs} "
         f"zero={sorted(face.zero_set)} problems={rpt.problems}")
        for cand, ch, face, rpt in verify.triangle_checks(
            cands, verify.chamber_faces(cands, action.rank))
    )
    checks, failures = verify.tally(records, lambda line: print(line, file=sys.stderr))
    payload = {"checks": checks, "failures": failures}
    _emit(payload, args.format, [f"triangle: {checks - failures}/{checks} pass"])
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# representation commands

def _load_rep(path: str, symmetric: bool = True):
    doc = _load_doc(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: a representation file needs a JSON object, got {doc!r}")
    try:
        qdoc = _object(doc, "quiver", "a representation file")
        rdoc = _object(doc, "representation", "a representation file")
    except ValueError as e:
        raise InputError(f"{path}: {e}")
    q, split, dims, _, _ = _parse_problem(qdoc, path, symmetric)
    if dims is None:
        raise InputError("dimension data required")
    try:
        rep, t = rep_from_json(q, rdoc)
        validate_shapes(q, dims, rep)
        return q, split, dims, rep, t
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{path}: {e}")


def cmd_stability(args) -> int:
    _check_positive(args.trials, "--trials")
    q, split, dims, rep, _ = _load_rep(args.file, symmetric=False)
    theta = dims.theta
    if args.theta is not None:
        theta = dict(zip(q.nodes, _parse_vector(args.theta, "--theta", len(q.nodes), frac)))
    if not theta:
        raise InputError("no stability condition: give --theta or a 'theta' entry")
    _check_theta_nodes(args.file, q, theta)
    payload: dict = {"theta": {node_key(n): frac_to_json(theta[n]) for n in q.nodes}}
    try:
        stable, witness = stability_report(q, dims, rep, theta)
        payload["mode"] = "exact"
    except MixedSignTheta:
        witness = destabilizer_search(q, dims, rep, theta, trials=args.trials, seed=args.seed)
        stable = None if witness is None else False
        payload["mode"] = "search"
        payload["seed"] = args.seed
        payload["trials"] = args.trials
        if witness is None:
            payload["note"] = "no destabilizer found within budget; not a stability proof"
    payload["stable"] = stable
    if witness is not None:
        payload["witness"] = {
            "dims": {node_key(n): witness.dims[n] for n in q.nodes},
            "basis": {
                node_key(n): [[frac_to_json(x) for x in vec] for vec in witness.basis[n]]
                for n in q.nodes
            },
            "pairing": frac_to_json(witness.pairing),
            "includes_framing": witness.includes_framing,
            "verified": verify_witness(q, dims, rep, theta, witness),
        }
    lines = [f"mode: {payload['mode']}", f"stable: {payload.get('stable')}"]
    if "witness" in payload:
        lines.append(f"witness dims: {payload['witness']['dims']}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_tau(args) -> int:
    q, split, dims, rep, _ = _load_rep(args.file)
    point = tau_charpoly(q, split, dims, rep)
    payload = {
        "loops": {
            str(l): [frac_to_json(c) for c in poly]
            for l, poly in point.loop_polys.items()
        },
        "nodes": {
            node_key(n): [frac_to_json(c) for c in poly]
            for n, poly in point.node_polys.items()
        },
    }
    lines = [f"loop {l}: {v}" for l, v in payload["loops"].items()] + [
        f"node {n}: {v}" for n, v in payload["nodes"].items()
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_moment_check(args) -> int:
    _check_positive(args.samples, "--samples")
    q, split, dims, _, _ = _load_problem(args.file)
    if dims is None:
        raise InputError("dimension data required")
    _, failures = verify.tally(verify.moment_records(build_aux(q, split, dims), args.samples, args.seed))
    payload = {"samples": args.samples, "failures": failures, "seed": args.seed}
    _emit(payload, args.format, [f"moment: {args.samples - failures}/{args.samples} pass (seed {args.seed})"])
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify suites over the built-in corpus

def cmd_verify(args) -> int:
    _check_positive(args.samples, "--samples")
    delta = None
    if args.delta is not None:
        if args.suite not in ("transfer", "all"):
            raise InputError(f"--delta applies to the transfer suite, not to {args.suite}")
        try:
            delta = frac(args.delta)
        except ValueError:
            raise InputError(f"--delta needs a rational, got {args.delta!r}")
        # check the override on every transfer entry before any suite starts
        for e in map(corpus().get, TRANSFER_QUIVERS):
            aux = build_aux(e.quiver, e.split, e.dims)
            try:
                lift_stability({n: 1 for n in e.quiver.nodes}, aux, delta)
            except ValueError as exc:
                raise InputError(f"delta override rejected for {e.name}: {exc}")
    # the suites are generators, so none starts before verify.run reaches it
    suites = {
        "moment": verify.moment_suite(args.samples, args.seed),
        "flag": verify.flag_suite(args.samples, args.seed),
        "transfer": verify.transfer_suite(args.samples, args.seed, delta),
        "triangle": verify.triangle_suite(),
    }
    lines: list[str] = []
    ok = verify.run((s for name, s in suites.items() if args.suite in (name, "all")), lines.append)
    payload = {"suite": args.suite, "seed": args.seed, "samples": args.samples,
               "ok": ok, "log": lines}
    _emit(payload, args.format, lines + [f"verify: {'ok' if ok else 'FAILED'} (seed {args.seed})"])
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# export

def cmd_export(args) -> int:
    # an option the selected export does not read would be dropped
    unread = {"fixed": ("roots",), "chambers": ()}.get(args.what, ("roots", "sigma", "window"))
    given = [f"--{name}" for name in unread if getattr(args, name) is not None]
    if given:
        raise InputError(f"export --what {args.what} does not read {' or '.join(given)}")
    if args.what == "fixed":
        payload = _fixed_payload(_candidates_for(args)[-1])
    elif args.what == "chambers":
        payload = _chambers_payload(args)
    else:
        payload = _surgery_payload(args, args.what)
    text = dumps_canonical(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(str(e))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverlab",
        description="Exact computations for symmetric quiver varieties.",
    )
    ap.add_argument("--seed", type=int, default=0, help="root seed for sampled output")
    ap.add_argument("--samples", type=int, default=200, help="sample count for property suites")
    ap.add_argument("--format", choices=("json", "table"), default="table")
    # the same globals are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "table"), default=argparse.SUPPRESS)
    # cocharacter and weight window of the commands that enumerate fixed components
    torus_opts = argparse.ArgumentParser(add_help=False)
    torus_opts.add_argument("--sigma", help="cocharacter, comma separated")
    torus_opts.add_argument("--window", help="weight window lo..hi")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="adjacency, symmetry and dimension report")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("aux", parents=[common], help="emit the leg-replaced auxiliary quiver")
    p.add_argument("file")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("cb", parents=[common], help="emit the framing-absorbed quiver")
    p.add_argument("file")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("fixed", parents=[common, torus_opts], help="fixed-component candidates for a cocharacter")
    p.add_argument("file")
    p.set_defaults(func=cmd_fixed)

    p = sub.add_parser("chambers", parents=[common, torus_opts], help="chamber decomposition of the root arrangement")
    p.add_argument("file", nargs="?")
    p.add_argument("--roots", help="explicit roots, e.g. '1,0;0,1;1,-1'")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("stab-table", parents=[common, torus_opts], help="attracting-cycle dimension and degree ledger")
    p.add_argument("file")
    p.add_argument("--xi", help="chamber point, comma separated; defaults to sigma")
    p.set_defaults(func=cmd_stab_table)

    p = sub.add_parser("triangle", parents=[common, torus_opts], help="weight-level split identity over all faces")
    p.add_argument("file")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("stability", parents=[common], help="stability verdict for a representation file")
    p.add_argument("file")
    p.add_argument("--theta", help="stability condition, comma separated")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("moment-check", parents=[common], help="sampled moment comparison on a quiver file")
    p.add_argument("file")
    p.set_defaults(func=cmd_moment_check)

    p = sub.add_parser("tau", parents=[common], help="characteristic-polynomial invariants of a representation")
    p.add_argument("file")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("verify", parents=[common], help="run the built-in corpus property suites")
    p.add_argument("suite", choices=("moment", "flag", "transfer", "triangle", "all"))
    p.add_argument("--delta", help="override the lifted-stability offset")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", parents=[common, torus_opts], help="write a surgery or combinatorics artifact")
    p.add_argument("file", nargs="?")
    p.add_argument("--what", required=True,
                   choices=("add", "rem", "aux", "cb", "fixed", "chambers"))
    p.add_argument("--out")
    p.add_argument("--roots")
    p.set_defaults(func=cmd_export)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args keeps no state between
    calls and returns a new Namespace each time."""
    return build_parser()


def _refuse_list_values(args):
    """An option given as --flag=-- reaches its command as []: argparse
    drops the '--' from the value and never calls type=. No option here
    takes a list, so any list is that case."""
    for dest, value in vars(args).items():
        if isinstance(value, list):
            raise InputError(f"--{dest.replace('_', '-')} needs a value, got '--'")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _refuse_list_values(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (InputError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the exit flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
