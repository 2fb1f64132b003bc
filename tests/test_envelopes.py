import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from quiverlab.envelopes import (
    MAX_CHAMBER_REGIONS,
    Face,
    WallError,
    chambers,
    faces,
    feasible_interior,
    primitive_up_to_sign,
    region_bound,
    split_N,
    stab_degree_table,
    torus_roots,
    triangle_split_check,
)
from quiverlab.exactlinalg import Mat, dot, kernel_basis
from quiverlab.torus import fixed_components
from quiverlab.corpus import ACTION_ENTRIES, corpus

RANK2_ROOTS = ((1, 0), (0, 1), (1, -1))


def corpus_candidates(name):
    e = corpus()[name]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
    return e, cands


def sign_vector_oracle(roots, rank, box=6):
    """Independent chamber count: collect realized sign vectors of every
    lattice point in a box."""
    seen = set()
    for x in itertools.product(map(Fraction, range(-box, box + 1)), repeat=rank):
        signs = []
        for r in roots:
            p = dot(r, x)
            if p == 0:
                break
            signs.append(1 if p > 0 else -1)
        else:
            seen.add(tuple(signs))
    return seen


def test_primitive_up_to_sign():
    assert primitive_up_to_sign((2, -4)) == (1, -2)
    assert primitive_up_to_sign((-2, 4)) == (1, -2)
    assert primitive_up_to_sign((Fraction(-1, 2), Fraction(1))) == (1, -2)
    assert primitive_up_to_sign((0, 0)) is None


def test_feasible_interior():
    point = feasible_interior([(1, 0), (0, 1)], 2)
    assert point is not None and point[0] > 0 and point[1] > 0
    assert feasible_interior([(1,), (-1,)], 1) is None
    assert feasible_interior([], 2) is not None
    # strict homogeneous chain x > y > 0
    p = feasible_interior([(1, -1), (0, 1)], 2)
    assert p[0] > p[1] > 0


def test_torus_roots_examples():
    _, cands = corpus_candidates("a2sym")
    assert torus_roots(cands) == ((1,),)
    triv_e, triv = corpus_candidates("jordan2")
    zero_sigma = fixed_components(
        triv_e.quiver, triv_e.split, triv_e.dims, triv_e.action, (0,)
    )
    assert torus_roots(zero_sigma) == ()


def test_chambers_rank1():
    chs = chambers(((1,),), 1)
    assert len(chs) == 2
    points = sorted(c.point[0] for c in chs)
    assert points[0] < 0 < points[1]


def test_chambers_rank2_count_and_oracle():
    chs = chambers(RANK2_ROOTS, 2)
    assert len(chs) == 6
    oracle = sign_vector_oracle(RANK2_ROOTS, 2)
    assert {c.signs for c in chs} == oracle


def test_chambers_empty_roots():
    chs = chambers((), 3)
    assert len(chs) == 1 and chs[0].signs == ()


def test_chambers_budget():
    with pytest.raises(ValueError):
        chambers(((1, 0, 0, 0, 1),), 5)
    # 16 rank-4 roots may cut out 2 * (1 + 15 + 105 + 455) = 1152 chambers
    assert region_bound(16, 4) == 1152 > MAX_CHAMBER_REGIONS
    roots = tuple(r for r in itertools.product((0, 1), repeat=4) if any(r)) + ((1, -1, 0, 0),)
    with pytest.raises(ValueError, match="up to 1152 chambers"):
        chambers(roots, 4)
    assert region_bound(24, 3) == 554 <= MAX_CHAMBER_REGIONS < region_bound(25, 3)
    # in rank 1 the bound is 2 whatever the root count
    assert len(chambers(((1,),) * 40, 1)) == 2


def fraction_feasible_interior(rows, nvars):
    """Fourier-Motzkin over Fraction rows with no scaling or deduplication,
    kept as the reference for the integer-row elimination."""
    levels = [[tuple(Fraction(c) for c in r) for r in rows]]
    for k in range(nvars, 0, -1):
        cur = levels[-1]
        if any(not any(r) for r in cur):
            return None
        pos = [r for r in cur if r[k - 1] > 0]
        neg = [r for r in cur if r[k - 1] < 0]
        zero = [r[: k - 1] for r in cur if r[k - 1] == 0]
        combos = [
            tuple(p[k - 1] * n[j] - n[k - 1] * p[j] for j in range(k - 1))
            for p in pos
            for n in neg
        ]
        levels.append(zero + combos)
    if levels[-1]:
        return None
    x = []
    for j in range(1, nvars + 1):
        lowers, uppers = [], []
        for r in levels[nvars - j]:
            c = r[j - 1]
            if c == 0:
                continue
            bound = -dot(r[: j - 1], x) / c
            (lowers if c > 0 else uppers).append(bound)
        if lowers and uppers:
            x.append((max(lowers) + min(uppers)) / 2)
        elif lowers:
            x.append(max(lowers) + 1)
        elif uppers:
            x.append(min(uppers) - 1)
        else:
            x.append(Fraction(0))
    return tuple(x)


def product_chambers(roots, rank):
    """Chambers as (signs, point) by elimination on every one of the 2^n
    sign vectors, in itertools.product order: the enumeration that prefix
    extension replaced."""
    out = []
    for signs in itertools.product((1, -1), repeat=len(roots)):
        rows = [tuple(s * c for c in r) for s, r in zip(signs, roots)]
        point = feasible_interior(rows, rank)
        if point is not None:
            out.append((signs, point))
    return out


def test_feasible_interior_matches_fraction_elimination():
    rng = random.Random(8)
    outcomes = Counter()
    for trial in range(1500):
        nvars = rng.randint(0, 3)
        rows = [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars))
            for _ in range(rng.randint(0, 7))
        ]
        if rows and trial % 3 == 0:
            # a positive multiple and a duplicate of rows already present
            rows.append(tuple(Fraction(5, 2) * c for c in rng.choice(rows)))
            rows.append(rng.choice(rows))
        want = fraction_feasible_interior(rows, nvars)
        got = feasible_interior(rows, nvars)
        assert got == want, (rows, nvars)
        assert got is None or all(type(c) is Fraction for c in got)
        outcomes[got is None] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


def seeded_arrangements():
    """Rank 1-4 arrangements of up to 12 roots with repeated, parallel
    (scaled or negated) and non-spanning roots among them."""
    rng = random.Random(11)
    out = []
    for rank in (1, 2, 3, 4):
        box = [v for v in itertools.product(range(-2, 3), repeat=rank) if any(v)]
        flat = [v for v in box if v[-1] == 0] or box
        for n in (1, 2, 3, 5, 8, 12 if rank < 4 else 9):
            roots = rng.sample(box, min(n, len(box)))
            while len(roots) < n:
                roots.append(rng.choice(roots))
            out.append((tuple(roots), rank))
            if n > 8:
                continue  # one arrangement at the largest size keeps the 2^n reference quick
            twisted = [tuple(rng.choice((-2, -1, 3)) * c for c in r) for r in roots[: n // 3]]
            out.append((tuple(roots[: n - len(twisted)] + twisted), rank))
            if rank > 1:
                out.append((tuple(rng.choice(flat) for _ in range(n)), rank))
    return out


def test_chambers_match_product_enumeration():
    for roots, rank in seeded_arrangements():
        got = [(c.signs, c.point) for c in chambers(roots, rank)]
        assert got == product_chambers(roots, rank), (roots, rank)


def test_faces_match_fraction_elimination():
    # each face point from Fraction rows over the flat's canonical kernel basis
    rng = random.Random(2)
    box = sorted({primitive_up_to_sign(v) for v in itertools.product((-1, 0, 1), repeat=3)} - {None})
    systems = [(RANK2_ROOTS, 2), (torus_roots(corpus_candidates("framed2")[1]), 2)]
    systems += [(tuple(rng.sample(box, k)), 3) for k in (5, 7)]
    for roots, rank in systems:
        for ch in chambers(roots, rank):
            for f in faces(ch):
                kb = kernel_basis(Mat([roots[i] for i in sorted(f.zero_set)], cols=rank))
                rows = [
                    tuple(ch.signs[i] * dot(r, b) for b in kb)
                    for i, r in enumerate(roots)
                    if i not in f.zero_set
                ]
                coords = fraction_feasible_interior(rows, len(kb))
                want = tuple(sum((c * b[j] for c, b in zip(coords, kb)), Fraction(0)) for j in range(rank))
                assert f.point == want, (roots, ch.signs, sorted(f.zero_set))
                assert f.span_basis == tuple(primitive_up_to_sign(b) for b in kb)


def test_chambers_oracle_on_corpus_rank2():
    e, cands = corpus_candidates("framed2")
    roots = torus_roots(cands)
    chs = chambers(roots, 2)
    oracle = sign_vector_oracle(roots, 2, box=8)
    assert {c.signs for c in chs} == oracle


def zaslavsky_regions(chs):
    """Region count of a central arrangement from its flat lattice alone:
    the sum of |mu(0, X)| over the flats X (Zaslavsky 1975). Every flat is
    the zero set of a face of some chamber; the order is inclusion of zero
    sets."""
    flats = sorted({f.zero_set for ch in chs for f in faces(ch)}, key=len)
    mu = {}
    for x in flats:
        mu[x] = 1 if not x else -sum(m for y, m in mu.items() if y < x)
    return sum(abs(m) for m in mu.values())


def test_chambers_match_zaslavsky_count():
    systems = []
    for name in ("framed2", "a2sym", "loop2"):
        e, cands = corpus_candidates(name)
        systems.append((torus_roots(cands), e.action.rank))
    box = sorted(
        {primitive_up_to_sign(v) for v in itertools.product((-1, 0, 1), repeat=3)}
        - {None}
    )
    rng = random.Random(5)
    systems += [(tuple(rng.sample(box, k)), 3) for k in (6, 7, 8)]
    for roots, rank in systems:
        chs = chambers(roots, rank)
        assert zaslavsky_regions(chs) == len(chs), roots


def test_faces_rank1():
    chs = chambers(((1,),), 1)
    fs = faces(chs[0])
    assert len(fs) == 2
    improper = [f for f in fs if f.improper]
    assert len(improper) == 1 and improper[0].span_basis == ((1,),)
    origin = [f for f in fs if not f.improper]
    assert origin[0].point == (Fraction(0),) and origin[0].span_basis == ()


def test_faces_rank2_facets():
    for ch in chambers(RANK2_ROOTS, 2):
        fs = faces(ch)
        facets = [f for f in fs if len(f.zero_set) == 1]
        assert len(facets) == 2  # every sector has two walls
        assert sum(f.improper for f in fs) == 1
        assert any(f.point == (Fraction(0), Fraction(0)) for f in fs)


def test_face_points_lie_in_chamber_closure():
    for ch in chambers(RANK2_ROOTS, 2):
        for f in faces(ch):
            for i, r in enumerate(ch.roots):
                p = dot(r, f.point)
                if i in f.zero_set:
                    assert p == 0
                else:
                    assert (p > 0) == (ch.signs[i] > 0) and p != 0


def test_split_N_basic():
    e, cands = corpus_candidates("a2sym")
    cand = next(c for c in cands if dict(c.nonzero_tangent()) == {(1,): 1, (-1,): 1})
    ns = split_N(cand, (1,))
    assert dict(ns.n_plus) == {(1,): 1}
    assert dict(ns.n_minus) == {(-1,): 1}
    assert ns.rank_plus == ns.rank_minus == 1
    with pytest.raises(WallError):
        split_N(cand, (0,))


def test_split_N_opposite_chamber_swaps():
    for name in ("a2sym", "framed2", "loop2"):
        e, cands = corpus_candidates(name)
        roots = torus_roots(cands)
        chs = chambers(roots, e.action.rank)
        for cand in cands:
            for ch in chs:
                ns = split_N(cand, ch.point)
                opp = split_N(cand, tuple(-x for x in ch.point))
                assert ns.n_plus == opp.n_minus and ns.n_minus == opp.n_plus


def test_rank_completeness():
    # rank N^- + rank N^+ + dim F = dim X
    from quiverlab.surgery import dim_quiver_variety

    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e, cands = corpus_candidates(name)
        roots = torus_roots(cands)
        chs = chambers(roots, e.action.rank)
        dim_x = dim_quiver_variety(e.quiver, e.dims)
        for cand in cands:
            for ch in chs:
                ns = split_N(cand, ch.point)
                assert ns.rank_minus + ns.rank_plus + cand.dim_fixed() == dim_x
                assert ns.rank_minus == ns.rank_plus


def test_stab_degree_table():
    e, cands = corpus_candidates("a2sym")
    table = stab_degree_table(e.quiver, e.split, e.dims, cands, (1,))
    assert table.dim_ambient == 2
    assert all(r.consistent for r in table.rows)
    # off-diagonal bound for dims 0 and 2 in ambient dim 2: (0+2)/2 - 1 = 0
    by_dim = {}
    for r in table.rows:
        by_dim.setdefault(r.dim_fixed, r.name)
    pair = next(
        p
        for p in table.pairs
        if {p.first, p.second} == {by_dim[0], by_dim[2]}
    )
    assert pair.off_diagonal_bound == 0


def test_stab_degree_table_sigma_zero():
    e = corpus()["jordan2"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, (0,))
    table = stab_degree_table(e.quiver, e.split, e.dims, cands, (1,))
    (row,) = table.rows
    assert row.dim_fixed == 4 and row.attracting_dim == 4 and row.rank_minus == 0


def test_triangle_degenerate_faces():
    e, cands = corpus_candidates("framed2")
    roots = torus_roots(cands)
    ch = chambers(roots, 2)[0]
    fs = faces(ch)
    improper = next(f for f in fs if f.improper)
    origin = next(f for f in fs if len(f.zero_set) == len(roots))
    for cand in cands:
        r1 = triangle_split_check(cand, ch, improper)
        assert r1.ok and not r1.side_quotient
        r2 = triangle_split_check(cand, ch, origin)
        assert r2.ok and not r2.side_face
        assert r2.side_quotient == r2.n_minus_full


def test_triangle_all_corpus_triples():
    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e, cands = corpus_candidates(name)
        roots = torus_roots(cands)
        chs = chambers(roots, e.action.rank)
        for cand in cands:
            for ch in chs:
                for f in faces(ch):
                    rpt = triangle_split_check(cand, ch, f)
                    assert rpt.ok, (name, cand.name(), ch.signs, sorted(f.zero_set))
                    assert rpt.n_minus_full == rpt.side_face + rpt.side_quotient


def test_triangle_foreign_face_detected():
    # a face from a different root system is flagged, not silently accepted
    e, cands = corpus_candidates("framed2")
    roots = torus_roots(cands)
    chs = chambers(roots, 2)
    foreign = chambers(((1, 1),), 2)
    f = next(f for f in faces(foreign[0]) if not f.improper and f.zero_set)
    flagged = 0
    for cand in cands:
        rpt = triangle_split_check(cand, chs[0], f)
        if rpt.problems:
            flagged += 1
    assert flagged > 0


def test_triangle_flags_face_outside_chamber_closure():
    # the open face of the opposite chamber: every character positive on
    # the chamber is alive there and negative at the face point
    e, cands = corpus_candidates("framed2")
    chs = chambers(torus_roots(cands), 2)
    opposite = next(c for c in chs if c.signs == tuple(-s for s in chs[0].signs))
    face = next(f for f in faces(opposite) if f.improper)
    flagged = 0
    for cand in cands:
        rpt = triangle_split_check(cand, chs[0], face)
        positive = {ch for ch in cand.nonzero_tangent() if dot(ch, chs[0].point) > 0}
        assert {ch for _, ch in rpt.problems} == positive
        assert {kind for kind, _ in rpt.problems} <= {"face-not-in-chamber-closure"}
        assert rpt.ok == (not positive)
        flagged += bool(positive)
    assert flagged == len(cands) - 1  # one candidate has no nonzero tangent character


def per_character_triangle(candidate, chamber, face):
    """The triangle check as one loop over the characters, each pairing
    taken on its own, before it read the chamber split from split_N:
    (ok, n_minus_full, side_face, side_quotient, problems)."""
    problems = []
    n_minus, side_face, side_quot = Counter(), Counter(), Counter()
    for ch, m in candidate.nonzero_tangent().items():
        s_full = dot(ch, chamber.point)
        if s_full == 0:
            raise WallError(ch)
        s_face = dot(ch, face.point)
        dead = all(dot(ch, b) == 0 for b in face.span_basis)
        if dead != (s_face == 0):
            problems.append(("incoherent-face-sign", ch))
            continue
        if s_full < 0:
            n_minus[ch] += m
        if not dead and s_face < 0:
            if s_full >= 0:
                problems.append(("face-not-in-chamber-closure", ch))
                continue
            side_face[ch] += m
        if dead and s_full < 0:
            side_quot[ch] += m
    ok = not problems and n_minus == side_face + side_quot
    return ok, n_minus, side_face, side_quot, tuple(problems)


def triangle_inputs():
    """(label, candidates, chamber, face) over every corpus triple, framed2
    at window -2..2, a foreign face, the opposite chamber's open face and a
    face whose point disagrees with its span."""
    out = []
    for name in ACTION_ENTRIES:
        e, cands = corpus_candidates(name)
        for ch in chambers(torus_roots(cands), e.action.rank):
            out += [(name, cands, ch, f) for f in faces(ch)]
    e = corpus()["framed2"]
    wide = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, (-2, 2))
    for ch in chambers(torus_roots(wide), 2):
        out += [("framed2 -2..2", wide, ch, f) for f in faces(ch)]
    _, cands = corpus_candidates("framed2")
    chs = chambers(torus_roots(cands), 2)
    foreign = next(f for f in faces(chambers(((1, 1),), 2)[0]) if f.zero_set)
    opposite = next(c for c in chs if c.signs == tuple(-s for s in chs[0].signs))
    incoherent = Face(frozenset(), (Fraction(0), Fraction(0)), ((1, 0), (0, 1)), True)
    for label, f in [("foreign", foreign), ("opposite", faces(opposite)[0]), ("incoherent", incoherent)]:
        out += [(label, cands, ch, f) for ch in chs]
    return out


def test_triangle_matches_per_character_loop():
    kinds = Counter()
    for label, cands, ch, f in triangle_inputs():
        for cand in cands:
            rpt = triangle_split_check(cand, ch, f)
            ok, n_minus, side_face, side_quot, problems = per_character_triangle(cand, ch, f)
            where = (label, cand.name(), ch.signs, sorted(f.zero_set))
            assert (rpt.ok, rpt.side_face, rpt.side_quotient, rpt.problems) == (
                ok, side_face, side_quot, problems), where
            if not problems:
                assert rpt.n_minus_full == n_minus, where
            # a character flagged incoherent stays in N^-, as split_N puts it
            assert rpt.n_minus_full == split_N(cand, ch.point).n_minus, where
            kinds.update({kind for kind, _ in problems} | {label})
    assert kinds["incoherent-face-sign"] and kinds["face-not-in-chamber-closure"]
    assert kinds["framed2 -2..2"] > kinds["framed2"]


def test_wrong_rank_pairings_name_the_rank():
    e, cands = corpus_candidates("framed2")
    cand = next(c for c in cands if c.nonzero_tangent())
    ch = chambers(torus_roots(cands), 2)[0]
    with pytest.raises(ValueError, match="xi has 3 coordinates, the action has rank 2"):
        split_N(cand, (1, 2, 3))
    rank3_face = faces(chambers(((1, 0, 0),), 3)[0])[0]
    with pytest.raises(ValueError, match="face point has 3 coordinates, the action has rank 2"):
        triangle_split_check(cand, ch, rank3_face)


@pytest.mark.parametrize(
    "roots, message",
    [
        (((1, 0), (1,)), "every root needs 2 coordinates"),
        (((1, 0), (0, 1, 1)), "every root needs 2 coordinates"),
        (((1, 0), (0, 0)), "roots must be nonzero"),
    ],
)
def test_chambers_refuses_ragged_or_zero_roots(roots, message):
    with pytest.raises(ValueError, match=message):
        chambers(roots, 2)
