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
is also the Lie algebra of the associated subtorus. A chamber's faces are
found by walking down its own face lattice from the open chamber. Every
face is the intersection of the facets that contain it, so a face one
dimension below a face F is F cut by one facet hyperplane; its zero set is
F's zero set Z joined with a cover class of Z, the roots whose restrictions
to F's span cut the same hyperplane as that facet's root. So only the cover
classes that hold a facet root are tried, each by one feasible_interior
call (one Fourier-Motzkin elimination) on the flat's signed pairing rows.
The facets are the parallel classes of roots whose sign flip is another
chamber, a lookup among the chambers that chambers() returned together.
Those chambers share one record of the arrangement, which keeps each flat
the walks reached, its kernel taken as integer rows of an integer
elimination with no Fraction matrix between.
Every pairing of a root or character with a rational point is an integer
dot product with the point's numerators over a common positive
denominator, which keeps its sign. Pairings are kept per point: a chamber
keeps each character's pairing with its point, and a face keeps that
pairing and whether the character vanishes on its span, for every
candidate. So the triangle check over all (candidate, chamber, face)
triples pairs a character with a chamber point once per chamber and with a
face point once per face. split_N and the degree ledger read only the ranks
of N^+ and N^-, counted in one pass with nothing kept.
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
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .exactlinalg import _int_basis, clear_denominators, frac, kernel_rows
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
    entries; the zero vector stays zero. A bool is refused, as frac
    refuses it."""
    if not all(type(x) is int for x in vec):
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
    repeats. Every row needs nvars entries.
    """
    if not (type(nvars) is int and nvars >= 0):
        raise ValueError(f"nvars needs a nonnegative integer, got {nvars!r}")
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != nvars:
            raise ValueError(f"row {r} needs {nvars} entries")
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
    # the record shared by the chambers one chambers() call returned; a
    # chamber built by hand, or by dataclasses.replace, has none
    _arrangement: _Arrangement | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # character -> pairing with nums, shared by every candidate checked
    # in this chamber
    _pairings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def nums(self) -> tuple[int, ...]:
        return _point_nums(self.point)

    def _pairing(self, ch) -> int:
        """ch against the point's numerators, taken once per character."""
        got = self._pairings.get(ch)
        if got is None:
            got = self._pairings[ch] = sum(map(mul, ch, self.nums))
        return got


@dataclass(frozen=True, slots=True)
class _Flat:
    """A flat of the arrangement, by its zero set Z.

    The kernel basis of Z times one common positive scale gives integer
    vectors v_j; coordinates[c] holds entry c of every v_j, so the point
    with integer coordinates x over a denominator d in the kernel basis has
    entry c equal to (x . coordinates[c]) / (d * scale). pairings holds
    (i, root i against the v_j, scaled to a primitive integer row) for every
    root i off Z, and covers groups their indices by the row up to sign:
    each group C is the zero set Z | C of one flat covering this one.
    """

    coordinates: tuple
    scale: int
    basis: tuple            # the kernel basis made primitive up to sign
    pairings: tuple
    covers: tuple


class _Arrangement:
    """What the faces of one arrangement's chambers share: each chamber's
    point by its signs, filled as chambers() finds them, and the flats the
    walks of faces() reached, by zero set. It holds no chamber, so the
    chambers and the record are freed by reference counting alone."""

    __slots__ = ("roots", "rank", "points", "_flats")

    def __init__(self, roots: tuple, rank: int):
        self.roots = roots
        self.rank = rank
        self.points: dict = {}
        self._flats: dict = {}

    def facet_roots(self, signs) -> set:
        """The indices of the roots on the facets of the chamber with these
        signs: the parallel classes whose sign flip is another chamber. The
        whole space is the flat with no root zero, and its covers are those
        classes."""
        out = set()
        for cls in self.flat(frozenset()).covers:
            flipped = list(signs)
            for i in cls:
                flipped[i] = -flipped[i]
            if tuple(flipped) in self.points:
                out.update(cls)
        return out

    def flat(self, zero: frozenset) -> _Flat:
        """The flat with this zero set, built once.

        The kernel is taken as integer rows from an integer elimination of
        the zero set's roots; row f is the kernel basis vector with 1 at f
        times row[f] > 0, so scaling each row to one common multiple gives
        the basis up to one scalar. On the kernel, two roots off Z cut the
        same hyperplane exactly when their pairing rows agree up to sign,
        so the covers are the sign classes of the rows.
        """
        got = self._flats.get(zero)
        if got is None:
            krows = kernel_rows(_int_basis(self.roots[i] for i in sorted(zero)), self.rank)
            free = sorted(krows)
            scale = lcm(*(krows[f][f] for f in free))
            vectors = [[x * (scale // krows[f][f]) for x in krows[f]] for f in free]
            pairings = tuple(
                (i, _coprime(tuple(sum(map(mul, r, v)) for v in vectors)))
                for i, r in enumerate(self.roots)
                if i not in zero
            )
            covers: dict = {}
            for i, row in pairings:
                # off the closed zero set, so the coprime row is nonzero
                covers.setdefault(_lead_positive(row), []).append(i)
            got = self._flats[zero] = _Flat(
                coordinates=tuple(zip(*vectors)) if vectors else ((),) * self.rank,
                scale=scale,
                # kernel rows are nonzero, so each has a primitive form
                basis=tuple(primitive_up_to_sign(krows[f]) for f in free),
                pairings=pairings,
                covers=tuple(covers.values()),
            )
        return got


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
    depend on the order of the search. The chambers share one record of
    the arrangement, which faces() reads.
    """
    if not (type(rank) is int and rank >= 0):
        raise ValueError(f"rank needs a nonnegative integer, got {rank!r}")
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
    record = _Arrangement(roots, rank)
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
            point = record.points[signs] = _back(levels)
            ch = Chamber(roots, signs, point)
            object.__setattr__(ch, "_arrangement", record)
            out.append(ch)
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


def faces(chamber: Chamber) -> list[Face]:
    """Faces of a chamber, the chamber itself and the minimal flat included,
    by zero-set size then members.

    The walk starts at the open face, whose point is the point chambers()
    found for these signs: its flat's kernel basis is the unit basis, so
    its signed rows and elimination are those of chambers(). A face one
    dimension below a face F is F cut by one facet hyperplane, and its
    zero set is a cover class of F's zero set holding that facet's root;
    so the walk tries only those covers, and keeps one when the strict
    chamber signs are feasible on its flat (feasible_interior). The face
    point is expanded from coordinates in the flat's kernel basis, and its
    span basis doubles as the subtorus Lie algebra. A chamber built by hand
    takes the record of chambers(chamber.roots, rank); signs that are not a
    chamber of the roots are a ValueError.
    """
    record = chamber._arrangement
    if record is None:
        record = chambers(chamber.roots, len(chamber.point))[0]._arrangement
        object.__setattr__(chamber, "_arrangement", record)
    signs = tuple(chamber.signs)
    point = record.points.get(signs)
    if point is None:
        raise ValueError(f"signs {signs} are not a chamber of the roots")
    on_facets = record.facet_roots(signs)
    top = frozenset()
    found = [Face(zero_set=top, point=point, span_basis=record.flat(top).basis)]
    seen = {top}
    todo = [top]
    while todo:
        zero = todo.pop()
        for cover in record.flat(zero).covers:
            if on_facets.isdisjoint(cover):
                continue
            # built in increasing order, as a frozenset of a scan over the
            # roots would be, so even its iteration order is the same
            below = frozenset(sorted(zero.union(cover)))
            if below in seen:
                continue
            seen.add(below)
            flat = record.flat(below)
            # the pairing rows are primitive, and so are their negatives, so
            # feasible_interior eliminates them as they are
            rows = [row if signs[i] > 0 else tuple(-x for x in row) for i, row in flat.pairings]
            coords = feasible_interior(rows, len(flat.basis))
            if coords is None:
                continue
            den = lcm(*(x.denominator for x in coords))
            nums = [x.numerator * (den // x.denominator) for x in coords]
            den *= flat.scale
            found.append(Face(
                zero_set=below,
                point=tuple(Fraction(sum(map(mul, nums, c)), den) for c in flat.coordinates),
                span_basis=flat.basis,
            ))
            todo.append(below)
    return sorted(found, key=lambda f: (len(f.zero_set), sorted(f.zero_set)))


# ---------------------------------------------------------------------------
# Attracting-weight bookkeeping

@dataclass
class NormalSplit:
    rank_plus: int
    rank_minus: int


def _check_rank(candidate: FixedCandidate, nums, what: str) -> None:
    """Refuse a point, named by what, with other than rank coordinates."""
    rank = candidate.action.rank
    if len(nums) != rank:
        raise ValueError(f"{what} has {len(nums)} coordinates, the action has rank {rank}")


def _split_ranks(candidate: FixedCandidate, nums) -> tuple[int, int]:
    """(rank N^+, rank N^-) at xi's numerators, after checking their count
    against the candidate's rank: the multiplicities of the nonzero tangent
    characters summed by the sign of their pairing. A zero pairing is a
    WallError, at the first such character in nonzero_tangent() order."""
    _check_rank(candidate, nums, "xi")
    plus = minus = 0
    for ch, m in candidate.nonzero_tangent().items():
        p = sum(map(mul, ch, nums))
        if p > 0:
            plus += m
        elif p < 0:
            minus += m
        else:
            raise WallError(ch)
    return plus, minus


def split_N(candidate: FixedCandidate, xi) -> NormalSplit:
    """The ranks of the nonzero tangent characters split by the sign of
    their pairing with xi: N^+ positive, N^- negative."""
    return NormalSplit(*_split_ranks(candidate, _point_nums(xi)))


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
        rank_plus, rank_minus = _split_ranks(cand, nums)
        rows.append(
            DegreeRow(
                name=cand.name(),
                dim_fixed=dim_f,
                rank_minus=rank_minus,
                rank_plus=rank_plus,
                attracting_dim=Fraction(dim_x + dim_f, 2),
                # (dim X + dim F)/2 - dim F == rank N^-, on integers
                consistent=(dim_x - dim_f == 2 * rank_minus),
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
    problems = []
    split = True  # no character of N^- alive and positive on the face
    chamber_pairing, face_pairing = chamber._pairing, face._pairing
    for ch in candidate.nonzero_tangent():
        # N^- holds ch exactly when its chamber pairing is negative
        s_chamber = chamber_pairing(ch)
        if s_chamber == 0:
            raise WallError(ch)
        s_face, dead = face_pairing(ch)
        if dead != (s_face == 0):
            problems.append(("incoherent-face-sign", ch))
        elif s_face > 0:
            if s_chamber < 0:
                split = False
        elif s_face < 0 and s_chamber > 0:
            problems.append(("face-not-in-chamber-closure", ch))
    return TriangleReport(split and not problems, tuple(problems))
