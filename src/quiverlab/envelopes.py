"""Root hyperplane combinatorics: chambers, faces, attracting-weight splits.

A chamber is a feasible all-strict sign assignment over the root list,
certified by an exact interior point from Fourier-Motzkin elimination.
A face fixes a closed subset of roots to zero and keeps the chamber signs
on the rest; its span is the common kernel of the vanishing roots, which
is also the Lie algebra of the associated subtorus.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactlinalg import Mat, dot, frac, kernel_basis
from .quiver import ArrowSplit, DimData, Quiver
from .surgery import dim_quiver_variety, hgamma_data
from .torus import FixedCandidate

MAX_CHAMBER_RANK = 4
MAX_CHAMBER_ROOTS = 12


class WallError(ValueError):
    """A pairing that needed to be nonzero vanished."""

    def __init__(self, char):
        self.char = char
        super().__init__(f"point lies on the wall of character {char}")


def primitive_up_to_sign(vec) -> tuple[int, ...] | None:
    """Scale a rational vector to a primitive integer one, positive leading
    entry; None for the zero vector."""
    fracs = [frac(x) for x in vec]
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def torus_roots(candidates) -> tuple[tuple[int, ...], ...]:
    """Nonzero tangent characters across candidates, primitive up to sign."""
    roots = set()
    for cand in candidates:
        roots.update(primitive_up_to_sign(ch) for ch in cand.nonzero_tangent())
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# Exact strict feasibility (Fourier-Motzkin)

def feasible_interior(rows, nvars: int):
    """A rational x with r . x > 0 for every row, or None.

    Homogeneous strict systems stay strict under Fourier-Motzkin: a
    positive-coefficient row gives a lower bound on the eliminated
    variable, a negative one an upper bound, and each bound pair combines
    to a strict row on the remaining variables. A row with no variables
    reads 0 > 0 and kills the system.
    """
    levels = [[tuple(frac(c) for c in r) for r in rows]]
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
        return None  # leftover variable-free strict rows

    x: list[Fraction] = []
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


@dataclass
class Chamber:
    roots: tuple            # shared root list
    signs: tuple            # +1 / -1 per root
    point: tuple            # certified interior point

    def sign_of(self, idx: int) -> int:
        return self.signs[idx]


def chambers(roots, rank: int) -> list[Chamber]:
    """All chambers of the central arrangement, by sign-vector enumeration."""
    roots = tuple(tuple(r) for r in roots)
    if any(len(r) != rank for r in roots):
        raise ValueError(f"every root needs {rank} coordinates")
    if not all(any(r) for r in roots):
        raise ValueError("roots must be nonzero")
    if rank > MAX_CHAMBER_RANK:
        raise ValueError(f"rank {rank} exceeds the enumeration budget {MAX_CHAMBER_RANK}")
    if len(roots) > MAX_CHAMBER_ROOTS:
        raise ValueError(
            f"{len(roots)} roots mean 2^{len(roots)} sign vectors, over the "
            f"enumeration budget of 2^{MAX_CHAMBER_ROOTS} ({MAX_CHAMBER_ROOTS} roots)"
        )
    out = []
    for signs in itertools.product((1, -1), repeat=len(roots)):
        rows = [tuple(s * c for c in r) for s, r in zip(signs, roots)]
        point = feasible_interior(rows, rank)
        if point is not None:
            out.append(Chamber(roots=roots, signs=signs, point=point))
    return out


@dataclass
class Face:
    zero_set: frozenset     # indices of roots vanishing on the face
    point: tuple            # relative-interior point
    span_basis: tuple       # primitive integer basis of the face span
    improper: bool


@functools.lru_cache(maxsize=1)
def _flats(roots, rank: int):
    """All flats as (zero set, kernel basis, pairings) triples, by zero-set
    size then members; pairings holds (i, root i against the kernel basis)
    for every root i off the zero set.

    Every flat is cut out by at most rank independent roots, so the closures
    of the root subsets of that size find them all. The kernel basis comes
    from the canonical RREF of the subset's span, whichever subset found it.
    """
    flats = {}
    for size in range(rank + 1):
        for sel in itertools.combinations(range(len(roots)), size):
            kb = kernel_basis(Mat([roots[i] for i in sel], cols=rank))
            rows = [tuple(dot(r, b) for b in kb) for r in roots]
            zero = frozenset(i for i, row in enumerate(rows) if not any(row))
            if zero not in flats:
                pairings = tuple((i, row) for i, row in enumerate(rows) if i not in zero)
                flats[zero] = (zero, kb, pairings)
    return tuple(sorted(flats.values(), key=lambda f: (len(f[0]), sorted(f[0]))))


def faces(chamber: Chamber) -> list[Face]:
    """Faces of a chamber, the chamber itself and the minimal flat included.

    A flat contributes a face when the strict chamber signs are feasible on
    it; the face point is expanded from coordinates in the flat's kernel
    basis and its span basis doubles as the subtorus Lie algebra.
    """
    roots = chamber.roots
    rank = len(chamber.point)
    out = []
    for zero_set, kb, pairings in _flats(roots, rank):
        k = len(kb)
        rows = [tuple(chamber.sign_of(i) * p for p in row) for i, row in pairings]
        coords = feasible_interior(rows, k)
        if coords is None:
            continue
        point = tuple(
            sum((coords[j] * kb[j][c] for j in range(k)), Fraction(0))
            for c in range(rank)
        )
        # kernel basis vectors are nonzero, so each has a primitive form
        basis = tuple(primitive_up_to_sign(v) for v in kb)
        out.append(
            Face(
                zero_set=zero_set,
                point=point,
                span_basis=basis,
                improper=not zero_set,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Attracting-weight bookkeeping

@dataclass
class NormalSplit:
    n_plus: Counter
    n_minus: Counter
    rank_plus: int
    rank_minus: int


def split_N(candidate: FixedCandidate, xi) -> NormalSplit:
    """Partition the nonzero tangent characters by the sign of their pairing."""
    xi = tuple(frac(c) for c in xi)
    plus, minus = Counter(), Counter()
    for ch, m in candidate.nonzero_tangent().items():
        p = dot(ch, xi)
        if p == 0:
            raise WallError(ch)
        (plus if p > 0 else minus)[ch] += m
    return NormalSplit(
        n_plus=plus,
        n_minus=minus,
        rank_plus=sum(plus.values()),
        rank_minus=sum(minus.values()),
    )


@dataclass
class DegreeRow:
    name: str
    dim_fixed: int
    rank_minus: int
    rank_plus: int
    attracting_dim: Fraction     # (dim X + dim F) / 2
    consistent: bool             # attracting_dim - dim F == rank N^-


@dataclass
class DegreePair:
    first: str
    second: str
    off_diagonal_bound: Fraction  # (dim F + dim F')/2 - 1
    fiber_product_bound: Fraction  # (dim F + dim F')/2 - dim of the base


@dataclass
class DegreeTable:
    dim_ambient: int
    dim_base: int
    rows: list
    pairs: list


def stab_degree_table(
    q: Quiver,
    split: ArrowSplit,
    dims: DimData,
    candidates,
    xi,
) -> DegreeTable:
    """Dimension and degree ledger imposed by the attracting-cycle axioms."""
    dim_x = dim_quiver_variety(q, dims)
    dim_base = hgamma_data(q, split, dims).dim_h
    rows = []
    for cand in candidates:
        dim_f = cand.dim_fixed()
        ns = split_N(cand, xi)
        attracting = Fraction(dim_x + dim_f, 2)
        rows.append(
            DegreeRow(
                name=cand.name(),
                dim_fixed=dim_f,
                rank_minus=ns.rank_minus,
                rank_plus=ns.rank_plus,
                attracting_dim=attracting,
                consistent=(attracting - dim_f == ns.rank_minus),
            )
        )
    pairs = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        half = Fraction(rows[i].dim_fixed + rows[j].dim_fixed, 2)
        pairs.append(
            DegreePair(
                first=rows[i].name,
                second=rows[j].name,
                off_diagonal_bound=half - 1,
                fiber_product_bound=half - dim_base,
            )
        )
    return DegreeTable(dim_ambient=dim_x, dim_base=dim_base, rows=rows, pairs=pairs)


# ---------------------------------------------------------------------------
# Weight-level triangle identity

def coarsen_grading(candidate: FixedCandidate, span_basis) -> dict:
    """Grading by restricted characters: pairings against the face span."""
    out = {}
    for n, table in candidate.grading.items():
        merged: Counter = Counter()
        for ch, m in table.items():
            merged[tuple(dot(ch, b) for b in span_basis)] += m
        out[n] = dict(merged)
    return out


@dataclass
class TriangleReport:
    ok: bool
    n_minus_full: Counter
    side_face: Counter       # characters alive on the subtorus, face-negative
    side_quotient: Counter   # characters dead on the subtorus, chamber-negative
    pairing_ok: bool = True
    problems: tuple = ()


def triangle_split_check(
    candidate: FixedCandidate,
    chamber: Chamber,
    face: Face,
    coarse_grading: dict | None = None,
) -> TriangleReport:
    """Two-step split of the attracting weights along a face.

    The downward weights for the chamber must equal the disjoint union of
    the downward weights seen by the face subtorus and the downward weights
    of the residual direction among characters the subtorus kills. A
    character is killed exactly when it vanishes on the face span; any
    disagreement with the sign at the face point flags incompatible input
    data, as does a face-negative character that is not chamber-negative
    (face outside the chamber closure).
    """
    problems = []
    xi = chamber.point
    xi_face = face.point
    n_minus_full: Counter = Counter()
    side_face: Counter = Counter()
    side_quot: Counter = Counter()
    for ch, m in candidate.nonzero_tangent().items():
        s_full = dot(ch, xi)
        if s_full == 0:
            raise WallError(ch)
        s_face = dot(ch, xi_face)
        dead = all(dot(ch, b) == 0 for b in face.span_basis)
        if dead != (s_face == 0):
            problems.append(("incoherent-face-sign", ch))
            continue
        if s_full < 0:
            n_minus_full[ch] += m
        if not dead and s_face < 0:
            if s_full >= 0:
                problems.append(("face-not-in-chamber-closure", ch))
                continue
            side_face[ch] += m
        if dead and s_full < 0:
            side_quot[ch] += m
    pairing_ok = True
    if coarse_grading is not None:
        derived = coarsen_grading(candidate, face.span_basis)
        pairing_ok = derived == coarse_grading
    ok = (
        not problems
        and pairing_ok
        and n_minus_full == side_face + side_quot
    )
    return TriangleReport(
        ok=ok,
        n_minus_full=n_minus_full,
        side_face=side_face,
        side_quotient=side_quot,
        pairing_ok=pairing_ok,
        problems=tuple(problems),
    )
