import dataclasses
import itertools
import json
import random
import re
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

from quiverlab.cli import _stab_table_payload
from quiverlab.envelopes import (
    MAX_CHAMBER_REGIONS,
    MAX_DEGREE_PAIRS,
    Chamber,
    DegreeRow,
    DegreeTable,
    Face,
    NormalSplit,
    TriangleReport,
    WallError,
    _coprime,
    _flats,
    _point_nums,
    _primitive_row,
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
from quiverlab.exactlinalg import Mat, clear_denominators, dot, kernel_basis
from quiverlab.jsonio import dumps_canonical, frac_to_json, quiver_from_json
from quiverlab.surgery import dim_quiver_variety, hgamma_data
from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver
from quiverlab.torus import TorusAction, fixed_components
from quiverlab.corpus import ACTION_ENTRIES, corpus
from quiverlab import envelopes

from test_torus import _block_view_problems

ROOT = Path(__file__).resolve().parent.parent
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


def list_feasible_interior(rows, nvars):
    """feasible_interior as it was before its levels were built
    incrementally: each level eliminated from scratch over a list."""
    levels = [list(dict.fromkeys(map(_primitive_row, rows)))]
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
        levels.append(list(dict.fromkeys(zero + list(map(_coprime, combos)))))
    if levels[-1]:
        return None  # leftover variable-free strict rows

    x: list[Fraction] = []
    xs: list[int] = []
    denom = 1
    for j in range(1, nvars + 1):
        lower = upper = None
        for r in levels[nvars - j]:
            c = r[j - 1]
            if c == 0:
                continue
            num = -sum(map(mul, r, xs))
            if c > 0 and (lower is None or num * lower[1] > lower[0] * c):
                lower = (num, c)
            elif c < 0 and (upper is None or num * upper[1] < upper[0] * c):
                upper = (num, c)
        if lower and upper:
            xj = (Fraction(*lower) + Fraction(*upper)) / (2 * denom)
        elif lower:
            xj = Fraction(*lower) / denom + 1
        elif upper:
            xj = Fraction(*upper) / denom - 1
        else:
            xj = Fraction(0)
        x.append(xj)
        scale = xj.denominator // gcd(denom, xj.denominator)
        denom *= scale
        xs = [v * scale for v in xs] + [xj.numerator * (denom // xj.denominator)]
    return tuple(x)


def prefix_chambers(roots, rank):
    """(signs, point) per chamber from the search as it was before it kept
    elimination levels: a prefix carries only an interior point, a side
    that point already lies on is feasible without elimination, and every
    other side, and every full sign vector, is eliminated from scratch."""
    roots = tuple(tuple(r) for r in roots)
    out = []
    origin = list_feasible_interior((), rank)
    stack = [((), (), origin, clear_denominators(origin)[0])]
    while stack:
        signs, rows, point, nums = stack.pop()
        if len(signs) == len(roots):
            out.append((signs, point))
            continue
        root = roots[len(signs)]
        pairing = sum(map(mul, root, nums))
        children = []
        for s in (1, -1):
            ext = rows + (tuple(s * c for c in root),)
            if s * pairing > 0 and len(ext) < len(roots):
                children.append((signs + (s,), ext, point, nums))
            else:
                p = list_feasible_interior(ext, rank)
                if p is not None:
                    children.append((signs + (s,), ext, p, clear_denominators(p)[0]))
        stack.extend(reversed(children))
    return out


def large_arrangements():
    """Seeded rank-3 arrangements of 14-24 roots and rank-4 ones of 9-13,
    past the reach of the 2^n reference but within MAX_CHAMBER_REGIONS,
    with parallel and repeated roots among them."""
    rng = random.Random(19)
    out = []
    for rank, sizes in ((3, (14, 19, 24)), (4, (9, 11, 13))):
        box = [v for v in itertools.product(range(-2, 3), repeat=rank) if any(v)]
        for n in sizes:
            roots = rng.sample(box, n)
            if n != sizes[1]:
                roots[-2:] = [tuple(-2 * c for c in roots[0]), roots[1]]
            out.append((tuple(roots), rank))
    assert all(region_bound(len(r), k) <= MAX_CHAMBER_REGIONS for r, k in out)
    return out


def test_chambers_match_prefix_search_on_large_arrangements():
    counts = []
    for roots, rank in large_arrangements():
        got = [(c.signs, c.point) for c in chambers(roots, rank)]
        assert got == prefix_chambers(roots, rank), (roots, rank)
        counts.append(len(got))
    assert max(counts) > 300, counts


def test_feasible_interior_ignores_row_order_and_repeats():
    rng = random.Random(23)
    outcomes = Counter()
    for _ in range(400):
        nvars = rng.randint(1, 4)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(nvars))
            for _ in range(rng.randint(1, 9))
        ]
        want = feasible_interior(rows, nvars)
        assert want == list_feasible_interior(rows, nvars), rows
        shuffled = rng.sample(rows, len(rows))
        # a repeat and a positive multiple of rows already present
        scale = rng.randint(2, 4)
        repeated = shuffled + [rng.choice(rows), tuple(scale * c for c in rng.choice(rows))]
        rng.shuffle(repeated)
        assert feasible_interior(shuffled, nvars) == want, rows
        assert feasible_interior(repeated, nvars) == want, rows
        outcomes[want is None] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes


def test_faces_match_fraction_elimination():
    # each face point from Fraction rows over the flat's canonical kernel
    # basis: every chamber of four rank 2 and 3 systems, and about six
    # chambers of each seeded rank 1-4 arrangement, with repeated, parallel
    # and non-spanning roots
    rng = random.Random(2)
    box = sorted({primitive_up_to_sign(v) for v in itertools.product((-1, 0, 1), repeat=3)} - {None})
    systems = [(RANK2_ROOTS, 2), (torus_roots(corpus_candidates("framed2")[1]), 2)]
    systems += [(tuple(rng.sample(box, k)), 3) for k in (5, 7)]
    picked = [(roots, rank, chambers(roots, rank)) for roots, rank in systems]
    for roots, rank in seeded_arrangements():
        chs = chambers(roots, rank)
        picked.append((roots, rank, chs[:: max(1, len(chs) // 6)]))
    checked = Counter()
    for roots, rank, chs in picked:
        for ch in chs:
            for f in faces(ch):
                checked[rank] += 1
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
    assert min(checked[rank] for rank in (1, 2, 3, 4)) > 10, checked


def all_subsets_flats(roots, rank):
    """The flat lattice as the closures of every root subset of size at most
    rank, each flat keeping the kernel basis of the first subset that finds
    it; pairings are Fraction products scaled to primitive integer rows."""

    def primitive(row):
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = gcd(*ints)
        return tuple(x // g for x in ints)

    found = {}
    for size in range(rank + 1):
        for sel in itertools.combinations(range(len(roots)), size):
            kb = kernel_basis(Mat([roots[i] for i in sel], cols=rank))
            rows = [tuple(sum(a * b for a, b in zip(r, v)) for v in kb) for r in roots]
            zero = frozenset(i for i, row in enumerate(rows) if not any(row))
            if zero not in found:
                pairings = tuple((i, primitive(row)) for i, row in enumerate(rows) if i not in zero)
                basis = tuple(primitive_up_to_sign(v) for v in kb)
                found[zero] = (zero, kb, basis, pairings)
    return tuple(sorted(found.values(), key=lambda f: (len(f[0]), sorted(f[0]))))


def test_flats_match_all_subsets_closures():
    systems = seeded_arrangements() + [((), rank) for rank in (1, 2, 3, 4)]
    systems += [
        (((1, 0, 0),), 3),
        (((1, 0, 0), (2, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -3, -3)), 3),
        (((1, 1, 0, 0), (0, 0, 1, 1), (2, 2, 1, 1), (1, 1, -1, -1)), 4),  # rank 2 in rank 4
        (RANK2_ROOTS, 2),
    ]
    sizes = Counter()
    for roots, rank in systems:
        got = _flats(roots, rank)
        assert got == all_subsets_flats(roots, rank), (roots, rank)
        sizes[rank] = max(sizes[rank], len(got))
    assert sizes[3] > 20 and sizes[4] > 20


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
    improper = [f for f in fs if not f.zero_set]
    assert len(improper) == 1 and improper[0].span_basis == ((1,),)
    origin = [f for f in fs if f.zero_set]
    assert origin[0].point == (Fraction(0),) and origin[0].span_basis == ()


def test_faces_rank2_facets():
    for ch in chambers(RANK2_ROOTS, 2):
        fs = faces(ch)
        facets = [f for f in fs if len(f.zero_set) == 1]
        assert len(facets) == 2  # every sector has two walls
        assert sum(not f.zero_set for f in fs) == 1
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
        for p in degree_pairs(table)
        if {p.first, p.second} == {by_dim[0], by_dim[2]}
    )
    assert pair.off_diagonal_bound == 0


def test_stab_degree_table_sigma_zero():
    e = corpus()["jordan2"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, (0,))
    table = stab_degree_table(e.quiver, e.split, e.dims, cands, (1,))
    (row,) = table.rows
    assert row.dim_fixed == 4 and row.attracting_dim == 4 and row.rank_minus == 0


DegreePair = namedtuple("DegreePair", "first second off_diagonal_bound fiber_product_bound")


def degree_pairs(table) -> list:
    """One DegreePair per two rows of a degree table, in
    itertools.combinations order, with the bounds the table keeps for the
    two rows' dim F + dim F'."""
    return [
        DegreePair(r.name, r2.name, *table.bounds[r.dim_fixed + r2.dim_fixed])
        for r, r2 in itertools.combinations(table.rows, 2)
    ]


def _reference_degree_table(q, split, dims, candidates, xi):
    """stab_degree_table as it was built before xi was cleared once per
    table: split_N per candidate, and each pair's bounds from its own sum.
    Returns the table and its pairs."""
    dim_x = dim_quiver_variety(q, dims)
    dim_base = hgamma_data(q, split, dims).dim_h
    rows = []
    for cand in candidates:
        dim_f = cand.dim_fixed()
        ns = split_N(cand, xi)
        attracting = Fraction(dim_x + dim_f, 2)
        rows.append(DegreeRow(cand.name(), dim_f, ns.rank_minus, ns.rank_plus, attracting,
                              attracting - dim_f == ns.rank_minus))
    pairs = [
        DegreePair(r.name, r2.name, Fraction(r.dim_fixed + r2.dim_fixed, 2) - 1,
                   Fraction(r.dim_fixed + r2.dim_fixed, 2) - dim_base)
        for r, r2 in itertools.combinations(rows, 2)
    ]
    return DegreeTable(dim_x, dim_base, rows), pairs


def _reference_stab_table_payload(table, pairs, xi):
    """The stab-table JSON payload as it was built from the fields of
    each pair, rendering both bounds of every pair."""
    return {
        "dim_ambient": table.dim_ambient,
        "dim_base": table.dim_base,
        "xi": list(xi),
        "rows": [{**vars(r), "attracting_dim": frac_to_json(r.attracting_dim)} for r in table.rows],
        "pairs": [
            {
                **p._asdict(),
                "off_diagonal_bound": frac_to_json(p.off_diagonal_bound),
                "fiber_product_bound": frac_to_json(p.fiber_product_bound),
            }
            for p in pairs
        ],
    }


def test_degree_ledger_matches_per_candidate_reference():
    problems = [(e, e.window, xi) for e in corpus().values()
                for xi in (e.sigma, tuple(-s for s in e.sigma), (Fraction(1, 3),) * len(e.sigma))]
    loop2 = corpus()["loop2"]
    problems.append((loop2, (-3, 3), loop2.sigma))
    sizes = []
    for e, window, xi in problems:
        args = (e.quiver, e.split, e.dims)
        cands = fixed_components(*args, e.action, e.sigma, window)
        try:
            expected, expected_pairs = _reference_degree_table(*args, cands, xi)
        except WallError:
            with pytest.raises(WallError):
                stab_degree_table(*args, cands, xi)
            continue
        table = stab_degree_table(*args, cands, xi)
        assert table == expected, e.name
        assert degree_pairs(table) == expected_pairs, e.name
        payload = _stab_table_payload(table, xi)
        reference = _reference_stab_table_payload(expected, expected_pairs, xi)
        assert payload == reference, e.name
        if all(type(x) is int for x in xi):
            # the record-list writer against the json.dumps oracle, on the
            # rows and pairs the cli prints (its xi is an integer vector)
            assert dumps_canonical(payload) == json.dumps(
                reference, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        sizes.append(len(cands))
    assert 196 in sizes and len(sizes) >= 10, sizes


def test_stab_degree_table_refuses_a_bad_xi_as_split_N_does():
    e, cands = corpus_candidates("loop2")
    for xi in ((1, 2), (True,), ()):
        with pytest.raises((ValueError, TypeError)) as expected:
            split_N(cands[0], xi)
        with pytest.raises((ValueError, TypeError)) as got:
            stab_degree_table(e.quiver, e.split, e.dims, cands, xi)
        assert (got.type, str(got.value)) == (expected.type, str(expected.value))
    # with no candidate no row reads xi, so nothing refuses it
    assert stab_degree_table(e.quiver, e.split, e.dims, [], (True,)).rows == []


def test_stab_degree_table_refuses_pairs_before_any_row():
    e = corpus()["a2sym"]
    # C(448, 2) = 100128 pairs: refused before a row reads a candidate, so
    # placeholders stand in for them
    with pytest.raises(ValueError, match=f"448 candidates give 100128 degree pairs.*{MAX_DEGREE_PAIRS}"):
        stab_degree_table(e.quiver, e.split, e.dims, [None] * 448, (1,))
    # C(447, 2) = 99681 pairs pass the check and reach the first row
    with pytest.raises(AttributeError):
        stab_degree_table(e.quiver, e.split, e.dims, [None] * 447, (1,))


# A triangle check's verdict with the three character multisets of its
# split: N^- at the chamber point, its characters alive on the face span and
# negative at the face point, and those dead on the span.
Triangle = namedtuple("Triangle", "ok n_minus_full side_face side_quotient problems")


def triangle_multisets(candidate, chamber, face):
    """(n_minus_full, side_face, side_quotient) as fresh Counters, built
    from what triangle_split_check reads: N^- from envelopes._sign_split at
    the chamber's numerators and each character's kept (pairing, dead) from
    face._pairing. A character whose face sign disagrees with its span is in
    neither side. Comparing these with per_character_triangle or
    reference_triangle checks the kept pairings against pairings taken
    afresh."""
    n_minus = envelopes._sign_split(candidate, chamber.nums)[1]
    side_face: Counter = Counter()
    side_quot: Counter = Counter()
    for ch, m in n_minus.items():
        s_face, dead = face._pairing(ch)
        if dead:
            if s_face == 0:
                side_quot[ch] = m
        elif s_face < 0:
            side_face[ch] = m
    return Counter(n_minus), side_face, side_quot


def checked_triangle(candidate, chamber, face) -> Triangle:
    """triangle_split_check's verdict and problems, with the multisets of
    triangle_multisets for the same triple."""
    rpt = triangle_split_check(candidate, chamber, face)
    assert type(rpt) is TriangleReport
    return Triangle(rpt.ok, *triangle_multisets(candidate, chamber, face), rpt.problems)


def test_triangle_degenerate_faces():
    e, cands = corpus_candidates("framed2")
    roots = torus_roots(cands)
    ch = chambers(roots, 2)[0]
    fs = faces(ch)
    improper = next(f for f in fs if not f.zero_set)
    origin = next(f for f in fs if len(f.zero_set) == len(roots))
    for cand in cands:
        r1 = checked_triangle(cand, ch, improper)
        assert r1.ok and not r1.side_quotient
        r2 = checked_triangle(cand, ch, origin)
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
                    rpt = checked_triangle(cand, ch, f)
                    assert rpt.ok, (name, cand.name(), ch.signs, sorted(f.zero_set))
                    union = rpt.side_face
                    union.update(rpt.side_quotient)  # + would drop counts <= 0
                    assert rpt.n_minus_full == union


def test_triangle_foreign_face_detected():
    # a face from a different root system is flagged, not silently accepted
    e, cands = corpus_candidates("framed2")
    roots = torus_roots(cands)
    chs = chambers(roots, 2)
    foreign = chambers(((1, 1),), 2)
    f = next(f for f in faces(foreign[0]) if f.zero_set)
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
    face = next(f for f in faces(opposite) if not f.zero_set)
    flagged = 0
    for cand in cands:
        rpt = triangle_split_check(cand, chs[0], face)
        positive = {ch for ch in cand.nonzero_tangent() if dot(ch, chs[0].point) > 0}
        assert {ch for _, ch in rpt.problems} == positive
        assert {kind for kind, _ in rpt.problems} <= {"face-not-in-chamber-closure"}
        assert rpt.ok == (not positive)
        flagged += bool(positive)
    assert flagged == len(cands) - 1  # one candidate has no nonzero tangent character


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def point_signs(chars, point) -> dict:
    """Each character's sign at a rational point, paired with the point's
    numerators over one positive denominator."""
    nums, _ = clear_denominators(point)
    return {x: _sign(sum(map(mul, x, nums))) for x in chars}


def per_character_triangle(candidate, chamber, face, signs=None):
    """The triangle check as one loop over the characters, each pairing
    taken on its own, before it read the chamber split from split_N, as a
    Triangle. signs, when
    given, maps each character to its signs at the chamber and face points
    and whether it vanishes on the face span. The union of the sides is
    compared with N^- count by count, since N^- may hold negative counts."""
    problems = []
    n_minus, side_face, side_quot = Counter(), Counter(), Counter()
    for ch, m in candidate.nonzero_tangent().items():
        if signs is None:
            s_full, s_face = _sign(dot(ch, chamber.point)), _sign(dot(ch, face.point))
            dead = all(dot(ch, b) == 0 for b in face.span_basis)
        else:
            s_full, s_face, dead = signs[ch]
        if s_full == 0:
            raise WallError(ch)
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
    union = Counter(side_face)
    union.update(side_quot)  # adds every count, where + drops those <= 0
    ok = not problems and n_minus == union
    return Triangle(ok, n_minus, side_face, side_quot, tuple(problems))


def negative_multiplicity_problem():
    """Nodes 0, 1, 2 with pairs a0: 1 -> 0, a1: 2 -> 0 and a2: 0 -> 2,
    v = (2, 2, 1), d = (1, 0, 1); rank-1 characters a0 = a1 = (-2) and
    a2* = (1), framing (-1) at node 0 and (0) at node 2. At sigma = 1 and
    window -1..1, some candidates hold a character of N^- with negative
    multiplicity."""
    ends = (("a0", "1", "0"), ("a1", "2", "0"), ("a2", "0", "2"))
    arrows = tuple(a for x, t, h in ends for a in (Arrow(x, t, h), Arrow(x + "*", h, t)))
    q = Quiver(("0", "1", "2"), arrows)
    split = ArrowSplit(tuple((x, x + "*") for x, _, _ in ends), ())
    dims = DimData({"0": 2, "1": 2, "2": 1}, {"0": 1, "1": 0, "2": 1})
    action = TorusAction(1, {"a0": (-2,), "a1": (-2,), "a2*": (1,)}, {"0": ((-1,),), "2": ((0,),)})
    return q, split, dims, action


def test_triangle_passes_with_negative_multiplicities_in_n_minus():
    # Counter addition drops counts <= 0, so side_face + side_quotient
    # could not equal an N^- with a negative count even on the improper
    # face, where side_face is N^- itself
    q, split, dims, action = negative_multiplicity_problem()
    cands = fixed_components(q, split, dims, action, (1,), (-1, 1))
    checked = negative = 0
    for ch in chambers(torus_roots(cands), 1):
        for f in faces(ch):
            for cand in cands:
                rpt = checked_triangle(cand, ch, f)
                assert rpt.ok and not rpt.problems, (cand.name(), ch.signs, sorted(f.zero_set))
                assert rpt == per_character_triangle(cand, ch, f) == reference_triangle(cand, ch, f)
                negative += any(m < 0 for m in rpt.n_minus_full.values())
                checked += 1
    assert (checked, negative) == (336, 12)


def test_triangle_matches_per_character_loop_on_block_view_problems():
    # every triple of the block-view problems at a nonzero sigma. Two
    # oracles need no reference: the improper face sees all of N^- on the
    # subtorus side, and the minimal flat, where every root vanishes, all
    # of it on the quotient side
    triples = negative = dropped = 0
    for (_, _, _, act, sigma, _), cands, _ in _block_view_problems():
        if not any(sigma):
            continue
        chars = set().union(*(c.nonzero_tangent() for c in cands))
        # rank at most 2: every arrangement is within the chamber budget
        for ch in chambers(torus_roots(cands), act.rank):
            full = point_signs(chars, ch.point)
            for f in faces(ch):
                at_face = point_signs(chars, f.point)
                signs = {
                    x: (full[x], at_face[x], not any(sum(map(mul, x, b)) for b in f.span_basis))
                    for x in chars
                }
                minimal = len(f.zero_set) == len(ch.roots)
                for cand in cands:
                    want = per_character_triangle(cand, ch, f, signs)
                    assert checked_triangle(cand, ch, f) == want, (
                        cand.name(), ch.signs, sorted(f.zero_set))
                    ok, n_minus, side_face, side_quot, _ = want
                    if not f.zero_set:
                        assert ok and side_face == n_minus
                    if minimal:
                        assert ok and side_quot == n_minus
                    if min(n_minus.values(), default=0) < 0:
                        negative += 1
                        dropped += n_minus != side_face + side_quot
                triples += len(cands)
    assert triples == 272_996
    # the triples a sum of Counters failed
    assert negative == dropped == 42_672


def test_torus_roots_makes_each_distinct_character_primitive_once(monkeypatch):
    problems = [cands for _, cands, _ in _block_view_problems()]
    problems += [corpus_candidates(name)[1] for name in ACTION_ENTRIES]
    for cands in problems:
        per_candidate = {primitive_up_to_sign(ch) for c in cands for ch in c.nonzero_tangent()}
        assert torus_roots(cands) == tuple(sorted(per_candidate))
    calls = []
    real = envelopes.primitive_up_to_sign
    monkeypatch.setattr(envelopes, "primitive_up_to_sign", lambda ch: calls.append(ch) or real(ch))
    _, loop2 = corpus_candidates("loop2")
    assert torus_roots(loop2) == ((1,),)
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 10


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
    incoherent = Face(frozenset(), (Fraction(0), Fraction(0)), ((1, 0), (0, 1)))
    for label, f in [("foreign", foreign), ("opposite", faces(opposite)[0]), ("incoherent", incoherent)]:
        out += [(label, cands, ch, f) for ch in chs]
    return out


def test_triangle_matches_per_character_loop():
    kinds = Counter()
    for label, cands, ch, f in triangle_inputs():
        for cand in cands:
            rpt = checked_triangle(cand, ch, f)
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


def test_triangle_matches_split_then_loop_on_framed2_window3():
    # every triple of `triangle inputs/framed2.json --window=-3..3`, then
    # faces of another chamber and of the default window's arrangement,
    # against the reference that splits N^- off first, then loops
    q, split, dims, action, sigma = quiver_from_json(
        json.loads((ROOT / "inputs" / "framed2.json").read_text()))
    cands = fixed_components(q, split, dims, action, sigma, (-3, 3))
    chs = chambers(torus_roots(cands), action.rank)
    face_lists = [faces(ch) for ch in chs]
    triples = [(ch, f) for ch, fs in zip(chs, face_lists) for f in fs]
    assert len(cands) * len(triples) == 18_624
    narrow = chambers(torus_roots(fixed_components(q, split, dims, action, sigma)), action.rank)
    for i in range(0, len(chs), 4):
        triples += [(chs[i], f) for f in face_lists[(i + 1) % len(chs)] + faces(narrow[i % len(narrow)])]
    kinds = Counter()
    for ch, f in triples:
        for cand in cands:
            rpt = checked_triangle(cand, ch, f)
            assert rpt == reference_triangle(cand, ch, f), (cand.name(), ch.signs, f.point)
            kinds.update(kind for kind, _ in rpt.problems)
            kinds[rpt.ok] += 1
    assert len(kinds) == 4, kinds  # ok, not ok and both problem kinds


def reference_sign_split(candidate, nums):
    """(N^+, N^-) as _sign_split made it before the split was kept per point."""
    plus, minus = Counter(), Counter()
    for ch, m in candidate.nonzero_tangent().items():
        p = sum(map(mul, ch, nums))
        if p == 0:
            raise WallError(ch)
        (plus if p > 0 else minus)[ch] += m
    return plus, minus


def reference_split_N(candidate, xi):
    """split_N before its pairings were kept on the candidate."""
    nums = _point_nums(xi)
    rank = candidate.action.rank
    if len(nums) != rank:
        raise ValueError(f"xi has {len(nums)} coordinates, the action has rank {rank}")
    plus, minus = reference_sign_split(candidate, nums)
    return NormalSplit(plus, minus, sum(plus.values()), sum(minus.values()))


def reference_triangle(candidate, chamber, face):
    """triangle_split_check before the chamber split was kept on the
    candidate and each character's face pairing on the face."""
    rank = candidate.action.rank
    face_nums = _point_nums(face.point)
    if len(face_nums) != rank:
        raise ValueError(f"face point has {len(face_nums)} coordinates, the action has rank {rank}")
    chamber_nums = _point_nums(chamber.point)
    if len(chamber_nums) != rank:
        raise ValueError(f"chamber point has {len(chamber_nums)} coordinates, the action has rank {rank}")
    n_minus_full = reference_sign_split(candidate, chamber_nums)[1]
    problems = []
    side_face: Counter = Counter()
    side_quot: Counter = Counter()
    for ch, m in candidate.nonzero_tangent().items():
        s_face = sum(map(mul, ch, face_nums))
        dead = not any(sum(map(mul, ch, b)) for b in face.span_basis)
        if dead != (s_face == 0):
            problems.append(("incoherent-face-sign", ch))
        elif dead:
            if ch in n_minus_full:
                side_quot[ch] += m
        elif s_face < 0:
            if ch in n_minus_full:
                side_face[ch] += m
            else:
                problems.append(("face-not-in-chamber-closure", ch))
    union = Counter(side_face)
    union.update(side_quot)  # adds every count, where + drops those <= 0
    return Triangle(
        ok=not problems and n_minus_full == union,
        n_minus_full=n_minus_full,
        side_face=side_face,
        side_quotient=side_quot,
        problems=tuple(problems),
    )


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (WallError, ValueError) as err:
        return type(err), str(err)


def shared_memo_calls():
    """Triangle and split_N calls over triangle_inputs() in a shuffled
    order. The rank-1 corpus entries share one arrangement, so their faces
    and chambers are crossed with every rank-1 entry's candidates: a face's
    pairings filled for one action are read for another. Points on a wall
    (face points as xi, and as chamber points) are mixed in, so WallErrors
    recur at points whose other splits are kept."""
    calls = []
    by_rank: dict = {}
    for label, cands, ch, f in triangle_inputs():
        calls += [(checked_triangle, reference_triangle, cand, ch, f) for cand in cands]
        calls += [(split_N, reference_split_N, cand, f.point) for cand in cands]
        rank = len(ch.point)
        by_rank.setdefault(rank, ([], []))
        by_rank[rank][0].extend(c for c in cands if c not in by_rank[rank][0])
        by_rank[rank][1].append((ch, f))
    cands1, pairs1 = by_rank[1]
    calls += [(checked_triangle, reference_triangle, c, ch, f) for c in cands1 for ch, f in pairs1]
    for ch, f in pairs1[:8] + by_rank[2][1][:40:5]:
        on_wall = Chamber(ch.roots, ch.signs, f.point)
        for c in by_rank[len(ch.point)][0][:20]:
            calls.append((checked_triangle, reference_triangle, c, on_wall, f))
            calls.append((split_N, reference_split_N, c, ch.point))
    random.Random(28).shuffle(calls)
    return calls


def test_memoised_pairings_match_references_in_shuffled_order():
    kinds = Counter()
    for fn, ref, *args in shared_memo_calls():
        want = _outcome(ref, *args)
        assert _outcome(fn, *args) == want, (fn.__name__, args[0].name(), args[1:])
        kinds[fn.__name__, type(want).__name__] += 1
        if isinstance(want, Triangle):
            kinds.update(kind for kind, _ in want.problems)
    assert kinds["incoherent-face-sign"] and kinds["face-not-in-chamber-closure"]
    # both functions returned reports and raised (a tuple outcome)
    assert kinds["checked_triangle", "Triangle"] and kinds["checked_triangle", "tuple"]
    assert kinds["split_N", "NormalSplit"] and kinds["split_N", "tuple"]


def test_wall_errors_are_raised_again_and_not_kept():
    e, cands = corpus_candidates("framed2")
    ch = chambers(torus_roots(cands), 2)[0]
    wall = next(f for f in faces(ch) if len(f.zero_set) == 1)
    on_wall = Chamber(ch.roots, ch.signs, wall.point)
    walled = [c for c in cands if any(dot(x, wall.point) == 0 for x in c.nonzero_tangent())]
    assert walled
    for cand in walled:
        for _ in range(2):
            with pytest.raises(WallError):
                split_N(cand, wall.point)
            with pytest.raises(WallError):
                triangle_split_check(cand, on_wall, wall)
        assert cand._split is None or cand._split[0] != on_wall.nums
        assert split_N(cand, ch.point) == reference_split_N(cand, ch.point)


def test_mutating_returned_counters_leaves_later_calls_alone():
    e, cands = corpus_candidates("framed2")
    chs = chambers(torus_roots(cands), 2)
    mutated = 0
    for cand in cands:
        for ch in chs[:4]:
            for f in faces(ch):
                rpt = checked_triangle(cand, ch, f)
                for counter in (rpt.n_minus_full, rpt.side_face, rpt.side_quotient):
                    counter[(9, 9)] += 3
                    counter.clear()
                rpt.n_minus_full.update(cand.nonzero_tangent())
                assert checked_triangle(cand, ch, f) == reference_triangle(cand, ch, f)
                ns = split_N(cand, ch.point)
                ns.n_plus.clear()
                ns.n_minus.update(cand.nonzero_tangent())
                assert split_N(cand, ch.point) == reference_split_N(cand, ch.point)
                assert checked_triangle(cand, ch, f) == reference_triangle(cand, ch, f)
                mutated += bool(cand.nonzero_tangent())
    assert mutated > 100


def test_equality_ignores_the_memos():
    e, cands = corpus_candidates("framed2")
    ch = chambers(torus_roots(cands), 2)[0]
    fs = faces(ch)
    fresh_ch = Chamber(ch.roots, ch.signs, ch.point)
    fresh_fs = [Face(f.zero_set, f.point, f.span_basis) for f in fs]
    for cand in cands:
        for f in fs:
            triangle_split_check(cand, ch, f)
    assert any(f._pairings for f in fs) and any(c._split for c in cands)
    assert ch == fresh_ch and repr(ch) == repr(fresh_ch)
    assert fs == fresh_fs and list(map(repr, fs)) == list(map(repr, fresh_fs))
    assert all(not f._pairings for f in fresh_fs)
    again = corpus_candidates("framed2")[1]
    assert cands == again and list(map(repr, cands)) == list(map(repr, again))
    # a kept pairing cannot outlive its point
    for obj in (ch, fs[0]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.point = tuple(2 * x for x in obj.point)


def fraction_split(candidate, xi):
    """(N^+, N^-) from Fraction pairings, before split_N cleared denominators."""
    plus, minus = Counter(), Counter()
    for ch, m in candidate.nonzero_tangent().items():
        p = sum(Fraction(c) * x for c, x in zip(ch, xi))
        if p == 0:
            raise WallError(ch)
        (plus if p > 0 else minus)[ch] += m
    return plus, minus


# positive scales with unlike denominators
SCALES = (Fraction(2, 3), Fraction(7, 5), Fraction(1, 6), 4)


def test_split_N_matches_fraction_pairing_under_positive_scaling():
    rng = random.Random(5)
    checked = walls = 0
    for name in ACTION_ENTRIES:
        e, cands = corpus_candidates(name)
        rank = e.action.rank
        points = [ch.point for ch in chambers(torus_roots(cands), rank)]
        points += [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rank))
            for _ in range(30)
        ]
        for cand in cands:
            for point in points:
                try:
                    want = fraction_split(cand, point)
                except WallError as err:
                    with pytest.raises(WallError) as got:
                        split_N(cand, point)
                    assert got.value.char == err.char
                    walls += 1
                    continue
                for s in (1,) + SCALES:
                    ns = split_N(cand, tuple(s * x for x in point))
                    assert (ns.n_plus, ns.n_minus) == want, (name, point, s)
                    assert (ns.rank_plus, ns.rank_minus) == tuple(sum(c.values()) for c in want)
                    checked += 1
    assert checked > 1000 and walls


def test_triangle_unchanged_by_positive_scaling_of_points():
    inputs = triangle_inputs()
    for n, (label, cands, ch, f) in enumerate(inputs[::5]):
        s_ch, s_face = SCALES[n % 4], SCALES[(n + 1) % 4]
        scaled_ch = Chamber(ch.roots, ch.signs, tuple(s_ch * x for x in ch.point))
        scaled_face = Face(f.zero_set, tuple(s_face * x for x in f.point), f.span_basis)
        for cand in cands:
            rpt = checked_triangle(cand, scaled_ch, scaled_face)
            assert rpt == checked_triangle(cand, ch, f), (label, ch.signs, sorted(f.zero_set))
            ok, _, side_face, side_quot, problems = per_character_triangle(cand, scaled_ch, scaled_face)
            assert (rpt.ok, rpt.side_face, rpt.side_quotient, rpt.problems) == (
                ok, side_face, side_quot, problems)


def test_split_N_refuses_bool_before_length():
    e, cands = corpus_candidates("framed2")
    cand = next(c for c in cands if c.nonzero_tangent())
    ch = chambers(torus_roots(cands), 2)[0]
    for xi in ((True, 1), (1, False), (True, 1, 2)):
        with pytest.raises(TypeError, match="cannot interpret .* as an exact rational"):
            split_N(cand, xi)
        with pytest.raises(TypeError, match="cannot interpret .* as an exact rational"):
            triangle_split_check(cand, Chamber(ch.roots, ch.signs, xi), faces(ch)[0])
    with pytest.raises(ValueError, match="xi has 1 coordinates, the action has rank 2"):
        split_N(cand, (Fraction(1, 2),))


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
        # faces() pairs the kept roots as integers; a bool is refused, not read as 1
        pytest.param(((Fraction(1, 2), 0), (0, 1)),
                     re.escape("root (Fraction(1, 2), 0) needs integer coordinates"), id="fraction"),
        pytest.param((("1/2", 0), (0, 1)), re.escape("root ('1/2', 0) needs integer coordinates"), id="string"),
        pytest.param(((True, 0), (0, 1)), re.escape("root (True, 0) needs integer coordinates"), id="bool"),
    ],
)
def test_chambers_refuses_ragged_or_zero_roots(roots, message):
    with pytest.raises(ValueError, match=message):
        chambers(roots, 2)
