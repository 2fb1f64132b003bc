"""Property suites over the built-in corpus, shared by the CLI and the tests.

Each suite yields ``(label, records)`` per corpus entry, one ``(ok, detail)``
record per sample or triple; ``detail`` is the line reported on failure.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .corpus import ACTION_ENTRIES, MOMENT_QUIVERS, TRANSFER_QUIVERS, corpus
from .envelopes import chambers, faces, torus_roots, triangle_split_check
from .quiver import DimData
from .reps import check_compare_moment, flag_check
from .sampling import (
    random_fraction, random_leg_stable_aux, random_representation, random_scalar_moment_leg,
)
from .stability import check_stability_transfer
from .surgery import build_aux
from .torus import fixed_components


def moment_records(aux, samples: int, seed: int):
    """One moment comparison record per unconstrained rational auxiliary sample."""
    rng = random.Random(seed)
    dims = DimData(aux.v, aux.d)
    for _ in range(samples):
        rep = random_representation(rng, aux.quiver, dims)
        t = {l: random_fraction(rng) for l in aux.add_split.loops}
        yield check_compare_moment(aux, rep, t), None


def flag_reports(n: int, samples: int, seed: int):
    """Flag report per random scalar-moment leg of length n, drawn from seed + n."""
    rng = random.Random(seed + n)
    for _ in range(samples):
        cs, ds = random_scalar_moment_leg(rng, n)
        yield flag_check(n, cs, ds, random_fraction(rng))


def transfer_records(aux, name: str, samples: int, seed: int, delta=None):
    """One stability transfer record per leg-stable auxiliary sample, for xi = 1."""
    rng = random.Random(seed)
    xi = {n: Fraction(1) for n in aux.base_quiver.nodes}
    for _ in range(samples):
        rep, t = random_leg_stable_aux(rng, aux)
        rpt = check_stability_transfer(aux, rep, t, xi, delta)
        yield rpt.inclusion_ok, None if rpt.inclusion_ok else (
            f"  VIOLATION [{name}]: lhs={rpt.lhs_stable} rhs={rpt.rhs_stable} "
            f"lhs_witness={rpt.lhs_witness and rpt.lhs_witness.dims} "
            f"rhs_witness={rpt.rhs_witness and rpt.rhs_witness.dims}"
        )


def chamber_faces(cands, rank: int) -> list:
    """(chamber, faces) for every chamber of the candidates' root arrangement."""
    return [(ch, faces(ch)) for ch in chambers(torus_roots(cands), rank)]


def triangle_checks(cands, chamber_list):
    """(candidate, chamber, face, report) for every triangle split check."""
    for cand in cands:
        for ch, face_list in chamber_list:
            for face in face_list:
                yield cand, ch, face, triangle_split_check(cand, ch, face)


def moment_suite(samples: int, seed: int):
    for e in map(corpus().get, MOMENT_QUIVERS):
        aux = build_aux(e.quiver, e.split, e.dims)
        yield f"moment[{e.name}]", moment_records(aux, samples, seed)


def flag_suite(samples: int, seed: int):
    for n in (2, 3, 4):
        yield f"flag[n={n}]", ((rpt.ok, None) for rpt in flag_reports(n, samples, seed))


def transfer_suite(samples: int, seed: int, delta=None):
    for e in map(corpus().get, TRANSFER_QUIVERS):
        aux = build_aux(e.quiver, e.split, e.dims)
        yield f"transfer[{e.name}]", transfer_records(aux, e.name, samples, seed, delta)


def triangle_suite():
    for e in map(corpus().get, ACTION_ENTRIES):
        cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
        checks = triangle_checks(cands, chamber_faces(cands, e.action.rank))
        yield f"triangle[{e.name}]", ((rpt.ok, None) for *_, rpt in checks)


def tally(records, report=None) -> tuple[int, int]:
    """(checks, failures) over (ok, detail) records; failure details go to report."""
    checks = failures = 0
    for ok, detail in records:
        checks += 1
        if not ok:
            failures += 1
            if detail is not None:
                report(detail)
    return checks, failures


def run(suites, report) -> bool:
    """Report one ``label: k/n pass`` line per entry; True when none failed."""
    ok = True
    for suite in suites:
        for label, records in suite:
            checks, failures = tally(records, report)
            report(f"{label}: {checks - failures}/{checks} pass")
            ok = ok and failures == 0
    return ok
