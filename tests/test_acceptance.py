"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single PASS line with its timing so a full run doubles
as a report. Sample counts and runtime budgets are part of the criteria.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from quiverlab.corpus import (
    ACTION_ENTRIES,
    MOMENT_QUIVERS,
    corpus,
)
from quiverlab.envelopes import chambers, split_N, torus_roots
from quiverlab.exactlinalg import dot
from quiverlab.reps import gauge_transform, tau_charpoly
from quiverlab.sampling import random_gauge, random_representation
from quiverlab.stability import (
    destabilizer_search,
    stability_report,
    verify_witness,
)
from quiverlab.surgery import (
    build_aux,
    dim_quiver_variety,
    dim_universal_nakajima,
    half_quiver,
    hgamma_data,
)
from quiverlab.torus import fixed_components
from quiverlab.verify import (
    chamber_faces,
    flag_reports,
    moment_suite,
    transfer_suite,
    triangle_checks,
)

from test_envelopes import triangle_multisets

SEED = 20240809


def _report(name, detail, started, budget):
    elapsed = time.monotonic() - started
    print(f"PASS {name}: {detail} [{elapsed:.2f}s < {budget}s]")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_moment_identity():
    started = time.monotonic()
    total = 0
    for label, records in moment_suite(200, SEED):
        for ok, _ in records:
            assert ok, (label, "moment identity failed")
            total += 1
    _report("criterion 1 (moment identity)", f"{total} samples exact", started, 5)


def test_criterion_2_flag_structure():
    started = time.monotonic()
    total = 0
    for n in (2, 3, 4):
        for rpt in flag_reports(n, 100, SEED):
            assert rpt.ok, (n, rpt.violations, rpt.nonscalar_depths)
            total += 1
    _report("criterion 2 (flag structure)", f"{total} legs pass", started, 5)


def test_criterion_3_stability_transfer():
    started = time.monotonic()
    total = violations = 0
    for _, records in transfer_suite(200, SEED):
        for ok, detail in records:
            total += 1
            if not ok:
                violations += 1
                print(detail)
    assert violations == 0, f"{violations} unexplained transfer violations"
    _report(
        "criterion 3 (stability transfer)",
        f"{total} samples, delta=1/(4S), zero violations",
        started,
        30,
    )


def test_criterion_4_dimension_consistency():
    started = time.monotonic()
    rows = []
    for e in corpus().values():
        aux = build_aux(e.quiver, e.split, e.dims)
        hq, hdims = half_quiver(aux)
        dim_x = dim_quiver_variety(e.quiver, e.dims)
        dim_n = dim_universal_nakajima(hq, hdims)
        dim_l = hgamma_data(e.quiver, e.split, e.dims).dim_l
        assert dim_x == dim_n + dim_l, (e.name, dim_x, dim_n, dim_l)
        rows.append(f"{e.name}: {dim_x} = {dim_n} + {dim_l}")
    jordan2 = corpus()["jordan2"]
    aux2 = build_aux(jordan2.quiver, jordan2.split, jordan2.dims)
    hq2, hd2 = half_quiver(aux2)
    assert dim_quiver_variety(jordan2.quiver, jordan2.dims) == 4
    assert dim_universal_nakajima(hq2, hd2) == 3
    _report("criterion 4 (dimension consistency)", "; ".join(rows), started, 1)


def test_criterion_5_tau_invariance():
    started = time.monotonic()
    checks = 0
    for name in MOMENT_QUIVERS:
        e = corpus()[name]
        rng = random.Random(SEED)
        for _ in range(2):
            rep = random_representation(rng, e.quiver, e.dims)
            base = tau_charpoly(e.quiver, e.split, e.dims, rep)
            for _ in range(50):
                g = random_gauge(rng, e.quiver, e.dims)
                moved = gauge_transform(e.quiver, e.dims, rep, g)
                assert tau_charpoly(e.quiver, e.split, e.dims, moved) == base
                checks += 1
    _report(
        "criterion 5 (tau invariance)", f"{checks} gauge conjugations exact", started, 5
    )


def test_criterion_6_self_duality_and_pairing():
    started = time.monotonic()
    checked = 0
    for name in ACTION_ENTRIES:
        e = corpus()[name]
        cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
        assert cands
        roots = torus_roots(cands)
        chs = chambers(roots, e.action.rank)
        dim_x = dim_quiver_variety(e.quiver, e.dims)
        for cand in cands:
            nz = cand.nonzero_tangent()
            negated = Counter({tuple(-x for x in ch): m for ch, m in nz.items()})
            assert negated == nz, (name, cand.name())
            for ch in chs:
                ns = split_N(cand, ch.point)
                assert ns.rank_plus == ns.rank_minus
                assert ns.rank_minus + ns.rank_plus + cand.dim_fixed() == dim_x
            checked += 1
    _report(
        "criterion 6 (self-duality / pairing)", f"{checked} candidates", started, 5
    )


def test_criterion_7_chamber_enumeration():
    started = time.monotonic()
    roots = ((1, 0), (0, 1), (1, -1))
    chs = chambers(roots, 2)
    assert len(chs) == 6
    # lattice oracle: every lattice point of the box [-6, 6]^2
    realized = set()
    for x in itertools.product(map(Fraction, range(-6, 7)), repeat=2):
        signs = []
        for r in roots:
            p = dot(r, x)
            if p == 0:
                break
            signs.append(1 if p > 0 else -1)
        else:
            realized.add(tuple(signs))
    assert {c.signs for c in chs} == realized
    for c in chs:
        for i, r in enumerate(roots):
            assert (dot(r, c.point) > 0) == (c.signs[i] > 0)
    _report("criterion 7 (chamber enumeration)", "6 chambers, oracle match", started, 1)


def test_criterion_8_triangle_shadow():
    started = time.monotonic()
    checks = 0
    for name in ACTION_ENTRIES:
        e = corpus()[name]
        cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
        roots = torus_roots(cands)
        chamber_list = chamber_faces(cands, e.action.rank)
        for ch, face_list in chamber_list:
            assert any(not f.zero_set for f in face_list)
            assert any(len(f.zero_set) == len(roots) for f in face_list)
        for cand, ch, f, rpt in triangle_checks(cands, chamber_list):
            assert rpt.ok, (name, cand.name(), ch.signs, sorted(f.zero_set))
            n_minus, union, side_quot = triangle_multisets(cand, ch, f)
            union.update(side_quot)  # + would drop counts <= 0
            assert n_minus == union
            checks += 1
    _report(
        "criterion 8 (triangle split)", f"{checks} triples, exact multisets", started, 5
    )


def test_criterion_9_stability_soundness():
    started = time.monotonic()
    total = witnesses = 0
    names = ("jordan2", "jordan3", "a2sym", "loop2")
    per = 125
    for name in names:
        e = corpus()[name]
        rng = random.Random(SEED)
        for k in range(per):
            rep = random_representation(rng, e.quiver, e.dims)
            if k % 5 == 4:
                # sparse variants exercise the unstable branch
                for key in list(rep.b):
                    rep.b[key] = 0 * rep.b[key]
            elif k % 5 == 3:
                for key in list(rep.a):
                    rep.a[key] = 0 * rep.a[key]
            sign = 1 if k % 2 == 0 else -1
            theta = {n: Fraction(sign * rng.randint(1, 3)) for n in e.quiver.nodes}
            stable, w = stability_report(e.quiver, e.dims, rep, theta)
            found = destabilizer_search(
                e.quiver, e.dims, rep, theta, trials=30, seed=SEED + k
            )
            total += 1
            if stable:
                assert found is None, (name, k, "search contradicted exact checker")
            else:
                assert w is not None and verify_witness(e.quiver, e.dims, rep, theta, w)
                assert w.pairing > 0
                witnesses += 1
            if found is not None:
                assert not stable
                assert verify_witness(e.quiver, e.dims, rep, theta, found)
    assert total == 500
    _report(
        "criterion 9 (stability soundness)",
        f"{total} samples, {witnesses} verified witnesses, no contradictions",
        started,
        30,
    )
