"""Root hyperplane combinatorics: chambers, faces, attracting-weight splits.

A chamber is a feasible all-strict sign assignment over the root list,
certified by an exact interior point from Fourier-Motzkin elimination on
primitive integer rows. Chambers are found by extending feasible sign
prefixes one root at a time, so the work follows the chamber count rather
than the 2^n sign vectors.
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
from math import comb, gcd, lcm
from operator import mul

from .exactlinalg import Mat, frac, kernel_basis
from .quiver import ArrowSplit, DimData, Quiver
from .surgery import dim_quiver_variety, hgamma_data
from .torus import FixedCandidate

MAX_CHAMBER_RANK = 4
MAX_CHAMBER_REGIONS = 600


class WallError(ValueError):
    """A pairing that needed to be nonzero vanished."""

    def __init__(self, char):
        self.char = char
        super().__init__(f"point lies on the wall of character {char}")


def _primitive_row(vec) -> tuple[int, ...]:
    """The positive rational multiple of a vector with coprime integer
    entries; the zero vector stays zero."""
    if not all(isinstance(x, int) for x in vec):
        fracs = [frac(x) for x in vec]
        denom = lcm(*(x.denominator for x in fracs))
        vec = [x.numerator * (denom // x.denominator) for x in fracs]
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def primitive_up_to_sign(vec) -> tuple[int, ...] | None:
    """Scale a rational vector to a primitive integer one, positive leading
    entry; None for the zero vector."""
    ints = _primitive_row(vec)
    lead = next((x for x in ints if x), 0)
    if lead == 0:
        return None
    return ints if lead > 0 else tuple(-x for x in ints)


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

    Scaling a row by a positive rational changes neither its half-space
    nor any bound -r.x/c it gives, so elimination runs on primitive
    integer rows, each level reduced by gcds and cleared of duplicates,
    and back-substitution keeps an integer numerator vector over one common
    denominator.
    """
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
        levels.append(list(dict.fromkeys(map(_primitive_row, zero + combos))))
    if levels[-1]:
        return None  # leftover variable-free strict rows

    # x = xs / denom with integer xs, so a row r with c = r[j - 1] != 0
    # bounds x_j by -(r . xs) / (c * denom); the extreme bounds are picked
    # as integer pairs (-(r . xs), c) before any Fraction is made.
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


@dataclass
class Chamber:
    roots: tuple            # shared root list
    signs: tuple            # +1 / -1 per root
    point: tuple            # certified interior point


def region_bound(n: int, rank: int) -> int:
    """Most regions n central hyperplanes in rank dimensions can cut out,
    2 * sum_{i < rank} C(n - 1, i) (Cover 1965; Zaslavsky 1975)."""
    return 2 * sum(comb(n - 1, i) for i in range(rank)) if n else 1


def chambers(roots, rank: int) -> list[Chamber]:
    """All chambers of the central arrangement, in lexicographic sign order
    with +1 before -1.

    Sign prefixes are extended one root at a time and only feasible ones
    kept, since every chamber restricts to a region of each sub-arrangement.
    A prefix carries an interior point; when that point pairs nonzero with
    the next root, the agreeing side is feasible without elimination. Each
    chamber's point is `feasible_interior` of its full sign rows, so it does
    not depend on the order of the search.
    """
    roots = tuple(tuple(r) for r in roots)
    if any(len(r) != rank for r in roots):
        raise ValueError(f"every root needs {rank} coordinates")
    if not all(any(r) for r in roots):
        raise ValueError("roots must be nonzero")
    if rank > MAX_CHAMBER_RANK:
        raise ValueError(f"rank {rank} exceeds the enumeration budget {MAX_CHAMBER_RANK}")
    bound = region_bound(len(roots), rank)
    if bound > MAX_CHAMBER_REGIONS:
        raise ValueError(
            f"{len(roots)} roots in rank {rank} may cut out up to {bound} chambers, "
            f"over the enumeration budget of {MAX_CHAMBER_REGIONS}"
        )
    out = []
    # (signs, sign rows, an interior point of the rows); a full-length entry's
    # point is always feasible_interior of its rows
    stack = [((), (), feasible_interior((), rank))]
    while stack:
        signs, rows, point = stack.pop()
        if len(signs) == len(roots):
            out.append(Chamber(roots=roots, signs=signs, point=point))
            continue
        root = roots[len(signs)]
        pairing = sum(map(mul, root, point))
        children = []
        for s in (1, -1):
            ext = rows + (tuple(s * c for c in root),)
            if s * pairing > 0 and len(ext) < len(roots):
                children.append((signs + (s,), ext, point))
            else:
                p = feasible_interior(ext, rank)
                if p is not None:
                    children.append((signs + (s,), ext, p))
        stack.extend(reversed(children))
    return out


@dataclass
class Face:
    zero_set: frozenset     # indices of roots vanishing on the face
    point: tuple            # relative-interior point
    span_basis: tuple       # primitive integer basis of the face span
    improper: bool


@functools.lru_cache(maxsize=1)
def _flats(roots, rank: int):
    """All flats as (zero set, kernel basis, span basis, pairings), by
    zero-set size then members. The span basis is the kernel basis made
    primitive up to sign; pairings holds (i, root i against the kernel
    basis, scaled to a primitive integer row) for every root i off the
    zero set.

    Every flat is cut out by at most rank independent roots, so the closures
    of the root subsets of that size find them all. The kernel basis comes
    from the canonical RREF of the subset's span, whichever subset found it.
    """
    flats = {}
    for size in range(rank + 1):
        for sel in itertools.combinations(range(len(roots)), size):
            kb = kernel_basis(Mat([roots[i] for i in sel], cols=rank))
            # the basis times the common denominator of its entries
            denom = lcm(*(x.denominator for b in kb for x in b))
            cols = [[x.numerator * (denom // x.denominator) for x in b] for b in kb]
            rows = [[sum(map(mul, r, c)) for c in cols] for r in roots]
            zero = frozenset(i for i, row in enumerate(rows) if not any(row))
            if zero not in flats:
                pairings = tuple(
                    (i, _primitive_row(row)) for i, row in enumerate(rows) if i not in zero
                )
                # kernel basis vectors are nonzero, so each has a primitive form
                basis = tuple(primitive_up_to_sign(v) for v in kb)
                flats[zero] = (zero, kb, basis, pairings)
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
    for zero_set, kb, basis, pairings in _flats(roots, rank):
        k = len(kb)
        rows = [tuple(chamber.signs[i] * p for p in row) for i, row in pairings]
        coords = feasible_interior(rows, k)
        if coords is None:
            continue
        point = tuple(
            sum((coords[j] * kb[j][c] for j in range(k)), Fraction(0))
            for c in range(rank)
        )
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
    xi = tuple(map(frac, xi))
    rank = candidate.action.rank
    if len(xi) != rank:
        raise ValueError(f"xi has {len(xi)} coordinates, the action has rank {rank}")
    plus, minus = Counter(), Counter()
    for ch, m in candidate.nonzero_tangent().items():
        p = sum(map(mul, ch, xi))
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

@dataclass
class TriangleReport:
    ok: bool
    n_minus_full: Counter
    side_face: Counter       # characters alive on the subtorus, face-negative
    side_quotient: Counter   # characters dead on the subtorus, chamber-negative
    problems: tuple = ()


def triangle_split_check(
    candidate: FixedCandidate,
    chamber: Chamber,
    face: Face,
) -> TriangleReport:
    """Two-step split of the attracting weights along a face.

    The downward weights for the chamber, read from `split_N` at the
    chamber point, must equal the disjoint union of the downward weights
    seen by the face subtorus and the downward weights of the residual
    direction among characters the subtorus kills. A character is killed
    exactly when it vanishes on the face span; any disagreement with the
    sign at the face point flags incompatible input data, as does a
    face-negative character that is not chamber-negative (face outside the
    chamber closure).
    """
    rank = candidate.action.rank
    if len(face.point) != rank:
        raise ValueError(f"face point has {len(face.point)} coordinates, the action has rank {rank}")
    n_minus_full = split_N(candidate, chamber.point).n_minus
    problems = []
    side_face: Counter = Counter()
    side_quot: Counter = Counter()
    for ch, m in candidate.nonzero_tangent().items():
        s_face = sum(map(mul, ch, face.point))
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
    return TriangleReport(
        ok=not problems and n_minus_full == side_face + side_quot,
        n_minus_full=n_minus_full,
        side_face=side_face,
        side_quotient=side_quot,
        problems=tuple(problems),
    )
