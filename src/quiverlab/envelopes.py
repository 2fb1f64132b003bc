"""Root hyperplane combinatorics: chambers, faces, attracting-weight splits.

A chamber is a feasible all-strict sign assignment over the root list,
certified by an exact interior point from Fourier-Motzkin elimination on
primitive integer rows. Chambers are found by extending feasible sign
prefixes one root at a time, so the work follows the chamber count rather
than the 2^n sign vectors. Each elimination level is kept as a set, and a
level is a union over the rows of the level above, so a prefix's levels
grow by the rows its new root generates and still equal the levels of an
elimination from scratch. Back-substitution reads only each level's extreme
bounds, so a chamber's point depends on its sign rows alone, not on the
order in which they were added.
A face fixes a closed subset of roots to zero and keeps the chamber signs
on the rest; its span is the common kernel of the vanishing roots, which
is also the Lie algebra of the associated subtorus. These closed subsets
are the flats of the arrangement, found by walking up from the whole space
through covers: a flat is covered by one flat per hyperplane the remaining
roots cut out of its kernel, so the lattice costs one kernel per flat, taken
as integer rows of an integer elimination with no Fraction matrix between.
Every pairing of a root or character with a rational point is an integer
dot product with the point's numerators over a common positive
denominator, which keeps its sign. Pairings are kept per point: a candidate
keeps its (N^+, N^-) split at the last point it was split at, and a face
keeps each character's pairing with its point and whether the character
vanishes on its span, for every candidate. So the triangle check over all
(candidate, chamber, face) triples, taken face by face within a chamber,
pairs a character with a chamber point once per candidate and with a face
point once per face, and hands out copies of what it keeps.
A triangle check decides its verdict in one pass over the candidate's
characters and builds no multiset: the split holds exactly when no
character of N^- is alive and positive on the face, so every multiplicity,
negative ones included, is compared exactly. Its report carries only `ok`
and `problems`. A character negative at a chamber point is <= 0 on a face
in the chamber's closure, and one that vanishes at a relative-interior
point of the face vanishes on its span, so with correct chambers() and
faces() every triple passes: the verdict checks this geometry, not the
triangle lemma. Likewise the degree ledger's `consistent` column holds
because the tangent is self-dual (rank N^- = (dim X - dim F) / 2 off the
walls); it checks self-duality, not the degree axiom.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .exactlinalg import _int_basis, clear_denominators, frac, kernel_rows, normalise_basis
from .quiver import ArrowSplit, DimData, Quiver
from .surgery import dim_quiver_variety, hgamma_data
from .torus import FixedCandidate

MAX_CHAMBER_RANK = 4
MAX_CHAMBER_REGIONS = 600
MAX_DEGREE_PAIRS = 100_000


class WallError(ValueError):
    """A pairing that needed to be nonzero vanished."""

    def __init__(self, char):
        self.char = char
        super().__init__(f"point lies on the wall of character {char}")


def _primitive_row(vec) -> tuple[int, ...]:
    """The positive rational multiple of a vector with coprime integer
    entries; the zero vector stays zero."""
    if not all(isinstance(x, int) for x in vec):
        vec, _ = clear_denominators([frac(x) for x in vec])
    return _coprime(tuple(vec))


def _coprime(row: tuple[int, ...]) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else row


def primitive_up_to_sign(vec) -> tuple[int, ...] | None:
    """Scale a rational vector to a primitive integer one, positive leading
    entry; None for the zero vector."""
    ints = _primitive_row(vec)
    return _lead_positive(ints) if any(ints) else None


def _lead_positive(row: tuple[int, ...]) -> tuple[int, ...]:
    """A nonzero integer row or its negative, whichever leads positive."""
    return row if next(x for x in row if x) > 0 else tuple(-x for x in row)


def torus_roots(candidates) -> tuple[tuple[int, ...], ...]:
    """Nonzero tangent characters across candidates, primitive up to sign;
    each distinct character is made primitive once."""
    chars = set()
    for cand in candidates:
        chars.update(cand.nonzero_tangent())
    return tuple(sorted({primitive_up_to_sign(ch) for ch in chars}))


# ---------------------------------------------------------------------------
# Exact strict feasibility (Fourier-Motzkin)

def _extend(levels, rows):
    """The elimination levels of a feasible system with primitive rows
    added, or None when the larger system is infeasible.

    levels[L] is a pair (pos, neg) of frozensets: the rows left after L
    eliminations whose last coordinate is positive or negative. A row whose
    last coordinate is 0 is not kept; its truncation, still primitive, sits
    one level down. Each level is a union over the rows of the level above
    (their truncations, and one combination per positive-negative pair), so
    only the rows that involve a new row are formed, and the levels equal
    those of an elimination from scratch as sets. A zero row reads 0 > 0
    and makes the system infeasible. The input levels are not changed.
    """
    out = []
    new = set(rows)
    for i, (pos, neg) in enumerate(levels):
        if not new:
            return (*out, *levels[i:])
        width = len(levels) - i  # coordinates of this level's rows
        if (0,) * width in new:
            return None
        add_pos, add_neg, down = [], [], set()
        for r in new:
            c = r[-1]
            if c > 0:
                if r not in pos:
                    add_pos.append(r)
            elif c < 0:
                if r not in neg:
                    add_neg.append(r)
            else:
                down.add(r[:-1])
        all_neg = neg.union(add_neg)
        # p[-1] > 0 > n[-1], so p[-1] * n - n[-1] * p is a positive
        # combination free of the last coordinate
        pairs = itertools.chain(itertools.product(add_pos, all_neg), itertools.product(pos, add_neg))
        if width == 2:
            # a one-coordinate row is primitive as its sign, and two
            # distinct ones (a zero row, or both signs) are infeasible
            for p, n in pairs:
                c = p[1] * n[0] - n[1] * p[0]
                down.add((1,) if c > 0 else (-1,) if c else (0,))
                if len(down) > 1:
                    return None
        else:
            for p, n in pairs:
                a, b = p[-1], n[-1]
                down.add(_coprime(tuple(a * y - b * x for x, y in zip(p[:-1], n))))
        out.append((pos.union(add_pos), all_neg))
        new = down
    return None if new else tuple(out)


def _back(levels) -> tuple:
    """The interior point of a feasible system by back-substitution.

    x_j lies strictly between the largest lower and the smallest upper bound
    of the level whose rows end at x_j, so only those extreme values are
    read and the point does not depend on the order of any level's rows.
    """
    # x = xs / denom with integer xs, so a row r with c = r[j - 1] != 0
    # bounds x_j by -(r . xs) / (c * denom); the extreme bounds are picked
    # as integer pairs (-(r . xs), c), and x_j, their midpoint or one past
    # the only bound, is made as one Fraction of integers.
    x: list[Fraction] = []
    xs: list[int] = []
    denom = 1
    for pos, neg in reversed(levels):
        lower = upper = None
        for r in pos:
            num, c = -sum(map(mul, r, xs)), r[-1]
            if lower is None or num * lower[1] > lower[0] * c:
                lower = (num, c)
        for r in neg:
            num, c = -sum(map(mul, r, xs)), r[-1]
            if upper is None or num * upper[1] < upper[0] * c:
                upper = (num, c)
        if lower and upper:
            (a, c), (a2, c2) = lower, upper
            xj = Fraction(a * c2 + a2 * c, 2 * c * c2 * denom)
        elif lower:
            a, c = lower
            xj = Fraction(a + c * denom, c * denom)
        elif upper:
            a, c = upper
            xj = Fraction(a - c * denom, c * denom)
        else:
            xj = Fraction(0)
        x.append(xj)
        scale = xj.denominator // gcd(denom, xj.denominator)
        denom *= scale
        xs = [v * scale for v in xs] + [xj.numerator * (denom // xj.denominator)]
    return tuple(x)


def feasible_interior(rows, nvars: int):
    """A rational x with r . x > 0 for every row, or None.

    Homogeneous strict systems stay strict under Fourier-Motzkin: a
    positive-coefficient row gives a lower bound on the eliminated
    variable, a negative one an upper bound, and each bound pair combines
    to a strict row on the remaining variables. A row with no variables
    reads 0 > 0 and kills the system.

    Scaling a row by a positive rational changes neither its half-space
    nor any bound -r.x/c it gives, so elimination runs on primitive
    integer rows, each level a set reduced by gcds, and back-substitution
    keeps an integer numerator vector over one common denominator. The
    levels are sets and back-substitution reads only their extreme bounds,
    so the point depends on the set of rows alone, not on their order or
    repeats.
    """
    levels = _extend(((frozenset(), frozenset()),) * nvars, map(_primitive_row, rows))
    return None if levels is None else _back(levels)


def _point_nums(point) -> tuple[int, ...]:
    """A rational point's integer numerators over one positive denominator,
    so every pairing with them has the point's sign; a bool is refused."""
    return tuple(clear_denominators([frac(x) for x in point])[0])


# frozen, so the cleared numerators and the pairings kept per point stay
# those of the point
@dataclass(frozen=True)
class Chamber:
    roots: tuple            # shared root list
    signs: tuple            # +1 / -1 per root
    point: tuple            # certified interior point

    @functools.cached_property
    def nums(self) -> tuple[int, ...]:
        return _point_nums(self.point)


def region_bound(n: int, rank: int) -> int:
    """Most regions n central hyperplanes in rank dimensions can cut out,
    2 * sum_{i < rank} C(n - 1, i) (Cover 1965; Zaslavsky 1975)."""
    return 2 * sum(comb(n - 1, i) for i in range(rank)) if n else 1


def chambers(roots, rank: int) -> list[Chamber]:
    """All chambers of the central arrangement, in lexicographic sign order
    with +1 before -1.

    Sign prefixes are extended one root at a time and only feasible ones
    kept, since every chamber restricts to a region of each sub-arrangement.
    A prefix carries the elimination levels of its sign rows, so a child
    forms only the rows its one new root generates. Those levels equal the
    ones `feasible_interior` builds from the full sign rows, so each
    chamber's point is `feasible_interior` of its sign rows and does not
    depend on the order of the search.
    """
    roots = tuple(tuple(r) for r in roots)
    if any(len(r) != rank for r in roots):
        raise ValueError(f"every root needs {rank} coordinates")
    for r in roots:
        # a bool is an int to isinstance, and a Fraction or a 'p/q' string
        # would reach the integer pairings of faces()
        if not all(type(x) is int for x in r):
            raise ValueError(f"root {r} needs integer coordinates")
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
    # each root's sign rows, +1 then -1, formed once for the whole search
    signed = []
    for r in roots:
        row = _primitive_row(r)
        signed.append(((1, (row,)), (-1, (tuple(-c for c in row),))))
    # (signs, the elimination levels of their sign rows)
    stack = [((), ((frozenset(), frozenset()),) * rank)]
    while stack:
        signs, levels = stack.pop()
        if len(signs) == len(roots):
            out.append(Chamber(roots=roots, signs=signs, point=_back(levels)))
            continue
        children = []
        for s, rows in signed[len(signs)]:
            ext = _extend(levels, rows)
            if ext is not None:
                children.append((signs + (s,), ext))
        stack.extend(reversed(children))
    return out


@dataclass(frozen=True)
class Face:
    zero_set: frozenset     # indices of roots vanishing on the face, empty on the open chamber
    point: tuple            # relative-interior point
    span_basis: tuple       # primitive integer basis of the face span
    # character -> (pairing with nums, whether it vanishes on span_basis),
    # shared by every candidate checked against this face
    _pairings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def nums(self) -> tuple[int, ...]:
        return _point_nums(self.point)

    def _pairing(self, ch) -> tuple[int, bool]:
        """(ch against the point's numerators, whether ch is dead on the
        span), each taken once per character."""
        got = self._pairings.get(ch)
        if got is None:
            got = self._pairings[ch] = (
                sum(map(mul, ch, self.nums)),
                not any(sum(map(mul, ch, b)) for b in self.span_basis),
            )
        return got


@functools.lru_cache(maxsize=1)
def _flats(roots, rank: int):
    """All flats as (zero set, kernel basis, span basis, pairings), by
    zero-set size then members. The span basis is the kernel basis made
    primitive up to sign; pairings holds (i, root i against the kernel
    basis, scaled to a primitive integer row) for every root i off the
    zero set.

    The lattice is built from covers, starting at the flat where no root
    vanishes. On a flat's kernel, the roots off its zero set Z restrict to
    the pairings rows; two roots cut the same hyperplane of the kernel
    exactly when their rows agree up to sign. So each sign class C of rows
    gives one flat covering this one, with zero set Z | C, and every flat
    is reached along a chain of covers. The kernel is taken once per flat,
    as integer rows from an integer elimination of its zero set's roots;
    the kernel basis is each row divided by its free-column entry, and the
    span basis and pairings are read off the integer rows. A flat with a
    zero kernel has no pairings and so no covers.
    """
    flats = {}
    todo = [frozenset(i for i, r in enumerate(roots) if not any(r))]
    while todo:
        zero = todo.pop()
        if zero in flats:
            continue
        krows = kernel_rows(_int_basis(roots[i] for i in sorted(zero)), rank)
        kb = normalise_basis(krows)
        free = sorted(krows)
        # row f is kb's vector with 1 at f times row[f] > 0, so scaling
        # each row to one common multiple gives kb's columns up to a scalar
        scale = lcm(*(krows[f][f] for f in free))
        cols = [[x * (scale // krows[f][f]) for x in krows[f]] for f in free]
        pairings = tuple(
            (i, _coprime(tuple(sum(map(mul, r, c)) for c in cols)))
            for i, r in enumerate(roots)
            if i not in zero
        )
        # kernel rows are nonzero, so each has a primitive form
        basis = tuple(primitive_up_to_sign(krows[f]) for f in free)
        flats[zero] = (zero, kb, basis, pairings)
        covers: dict = {}
        for i, row in pairings:
            # off the closed zero set, so the coprime row is nonzero
            covers.setdefault(_lead_positive(row), []).append(i)
        # built in increasing order, as a frozenset of a scan over the roots
        # would be, so even its iteration order is the same
        todo.extend(frozenset(sorted(zero.union(c))) for c in covers.values())
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
        out.append(Face(zero_set=zero_set, point=point, span_basis=basis))
    return out


# ---------------------------------------------------------------------------
# Attracting-weight bookkeeping

@dataclass
class NormalSplit:
    n_plus: Counter
    n_minus: Counter
    rank_plus: int
    rank_minus: int


def _sign_split(candidate: FixedCandidate, nums) -> tuple[Counter, Counter]:
    """(N^+, N^-): the nonzero tangent characters by the sign of their
    pairing with a point's numerators; a zero pairing is a WallError.

    The candidate keeps the split at the last point it was split at, so
    repeated calls at one point (every face of a chamber) pair each
    character with it once, and the memo never holds more than one point.
    Callers only read the split and copy what they hand out. A WallError is
    not kept, and is raised again on every call at that point.
    """
    got = candidate._split
    if got is None or got[0] != nums:
        plus, minus = Counter(), Counter()
        for ch, m in candidate.nonzero_tangent().items():
            p = sum(map(mul, ch, nums))
            if p == 0:
                raise WallError(ch)
            (plus if p > 0 else minus)[ch] += m
        got = candidate._split = (nums, plus, minus)
    return got[1], got[2]


def _check_rank(candidate: FixedCandidate, nums, what: str) -> None:
    """Refuse a point, named by what, with other than rank coordinates."""
    rank = candidate.action.rank
    if len(nums) != rank:
        raise ValueError(f"{what} has {len(nums)} coordinates, the action has rank {rank}")


def _xi_split(candidate: FixedCandidate, nums) -> tuple[Counter, Counter]:
    """_sign_split at xi's numerators, after checking their count against
    the candidate's rank."""
    _check_rank(candidate, nums, "xi")
    return _sign_split(candidate, nums)


def split_N(candidate: FixedCandidate, xi) -> NormalSplit:
    """Partition the nonzero tangent characters by the sign of their pairing."""
    plus, minus = _xi_split(candidate, _point_nums(xi))
    return NormalSplit(
        n_plus=Counter(plus),
        n_minus=Counter(minus),
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
class DegreeTable:
    """The ledger's rows, and the bounds its pairs are read from.

    Both bounds of a pair depend on dim F + dim F' alone, so the table keeps
    one (off_diagonal_bound, fiber_product_bound) per distinct sum; a pair
    is two rows in itertools.combinations order. The bounds are a function
    of the rows and dim_base and take no part in equality.
    """

    dim_ambient: int
    dim_base: int
    rows: list[DegreeRow]
    # dim F + dim F' -> (off_diagonal_bound, fiber_product_bound)
    bounds: dict = field(default_factory=dict, repr=False, compare=False)


def stab_degree_table(
    q: Quiver,
    split: ArrowSplit,
    dims: DimData,
    candidates,
    xi,
) -> DegreeTable:
    """Dimension and degree ledger imposed by the attracting-cycle axioms.

    One pair per two candidates, read from the rows and the bounds; more
    than MAX_DEGREE_PAIRS is refused before any row is built.
    """
    candidates = list(candidates)
    count = comb(len(candidates), 2)
    if count > MAX_DEGREE_PAIRS:
        raise ValueError(
            f"{len(candidates)} candidates give {count} degree pairs, over the "
            f"budget of {MAX_DEGREE_PAIRS}"
        )
    dim_x = dim_quiver_variety(q, dims)
    dim_base = hgamma_data(q, split, dims).dim_h
    rows = []
    # xi's denominators are cleared once, and only when a row reads them
    nums = _point_nums(xi) if candidates else ()
    for cand in candidates:
        dim_f = cand.dim_fixed()
        plus, minus = _xi_split(cand, nums)
        rank_minus = sum(minus.values())
        attracting = Fraction(dim_x + dim_f, 2)
        rows.append(
            DegreeRow(
                name=cand.name(),
                dim_fixed=dim_f,
                rank_minus=rank_minus,
                rank_plus=sum(plus.values()),
                attracting_dim=attracting,
                consistent=(attracting - dim_f == rank_minus),
            )
        )
    dims_f = {r.dim_fixed for r in rows}
    bounds = {
        s: (Fraction(s, 2) - 1, Fraction(s, 2) - dim_base)
        for s in {a + b for a in dims_f for b in dims_f}
    }
    return DegreeTable(dim_ambient=dim_x, dim_base=dim_base, rows=rows, bounds=bounds)


# ---------------------------------------------------------------------------
# Weight-level triangle identity

@dataclass(slots=True)
class TriangleReport:
    """A triangle check's verdict and the problems that flagged its input."""

    ok: bool
    problems: tuple = ()


def triangle_split_check(
    candidate: FixedCandidate,
    chamber: Chamber,
    face: Face,
) -> TriangleReport:
    """Two-step split of the attracting weights along a face.

    The downward weights for the chamber, split by the sign rule of
    `split_N` at the chamber point, must equal the disjoint union of the
    downward weights seen by the face subtorus and the downward weights of
    the residual direction among characters the subtorus kills. A character
    is killed exactly when it vanishes on the face span; any disagreement
    with the sign at the face point flags incompatible input data, as does
    a face-negative character that is not chamber-negative (face outside
    the chamber closure).

    Without problems, every character of N^- is dead on the face or alive
    with a nonzero face sign, so the union misses exactly the characters
    of N^- alive and positive at the face point, whatever their
    multiplicities: the verdict is one pass over the characters with no
    multiset built.
    """
    _check_rank(candidate, face.nums, "face point")
    _check_rank(candidate, chamber.nums, "chamber point")
    n_minus = _sign_split(candidate, chamber.nums)[1]
    problems = []
    split = True  # no character of N^- alive and positive on the face
    pairing = face._pairing
    for ch in candidate.nonzero_tangent():
        s_face, dead = pairing(ch)
        if dead != (s_face == 0):
            problems.append(("incoherent-face-sign", ch))
        elif s_face > 0:
            if ch in n_minus:
                split = False
        elif s_face < 0 and ch not in n_minus:
            problems.append(("face-not-in-chamber-closure", ch))
    return TriangleReport(split and not problems, tuple(problems))
