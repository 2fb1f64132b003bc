"""Exact dense linear algebra over the rationals.

A Mat stores integer numerators over one denominator, num / den, always in
lowest terms: den > 0, gcd(den, every numerator) = 1, and a zero matrix
has den 1. So equal matrices have equal num and den, and num is the
matrix cleared by the lcm of its entries' denominators. Products,
sums and scalings are integer arithmetic with one gcd pass at the end;
Fractions are made only where entries are read (Mat.data, col_tuple,
apply, the scalars and the returned bases). Mat(...) coerces and checks
outside data.

Every sum of rational matrices in the package is one _num_sum: terms
(integer coefficient, integer rows or the identity, denominator) added
over the lcm of their denominators, identity terms on the diagonal.
Mat + and -, the moment blocks, the leg-depth scalars, the flag check's
shifted maps and the scalar-moment leg sampler all use it, with
_num_product for the product terms; _scalar_entry is the one test of
whether an integer block is a scalar.

Vectors and span bases hold Fractions. clear_denominators turns a row
into integers and one scale, clear_matrix a matrix. Elimination has one
step, insert_row, which adds an integer row to a Gauss-Jordan basis
{pivot: row} by cross multiplication and gcd division (integer rows, in
the style of Bareiss); normalise_basis divides each row by its pivot once,
at the end. rank, kernel_basis, solve and charpoly read num directly;
charpoly runs its recurrence on the integer matrix. That is fine at the
matrix sizes this package works with (dimensions rarely above 10).
Subspaces are represented by canonical reduced-row-echelon bases, so two
equal subspaces always carry identical basis tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul, neg
from typing import Iterable, Sequence

Vector = tuple  # tuple of Fractions

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational.

    A bool is refused, though Python counts it as an int.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def clear_denominators(entries: Sequence) -> tuple[list[int], int]:
    """(ints, scale) with entries[i] == ints[i] / scale, where scale is the
    lcm of the entries' denominators. Takes Fractions or ints."""
    pairs = [e.as_integer_ratio() for e in entries]
    scale = lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs], scale


class Mat:
    """Immutable rational matrix: a tuple of integer rows `num` over one
    denominator `den > 0`, in lowest terms."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(frac(e) for e in row) for row in data)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged matrix data")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        num, den = clear_matrix(rows)
        self._fill(tuple(map(tuple, num)), den, cols)

    def _fill(self, num: tuple, den: int, cols: int):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", len(num))
        object.__setattr__(self, "cols", cols)

    @staticmethod
    def _from_ints(num: tuple, den: int, cols: int) -> "Mat":
        """The Mat num / den, for a tuple of equal-length tuples of ints and
        den > 0, brought to lowest terms. It checks nothing, so it serves
        this module and the package's own integer builders
        (the samplers in sampling), never outside data."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(a // g for a in row) for row in num)
                den //= g
        m = object.__new__(Mat)
        m._fill(num, den, cols)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @property
    def data(self) -> tuple:
        """The entries as a tuple of tuples of Fractions, built on each call."""
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.num)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat._from_ints(((0,) * cols,) * rows, 1, cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._from_ints(tuple(_unit(i, n) for i in range(n)), 1, n)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat.zero({self.rows}, {self.cols})"
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Mat[{body}]"

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        terms = [(1, self.num, self.den), (1, other.num, other.den)]
        return Mat._from_ints(*_num_sum(terms, self.rows), self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        terms = [(1, self.num, self.den), (-1, other.num, other.den)]
        return Mat._from_ints(*_num_sum(terms, self.rows), self.cols)

    def __neg__(self) -> "Mat":
        return Mat._from_ints(tuple(tuple(map(neg, row)) for row in self.num), self.den, self.cols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        p, q = frac(other).as_integer_ratio()
        return Mat._from_ints(
            tuple(tuple(p * a for a in row) for row in self.num), q * self.den, self.cols
        )

    __rmul__ = __mul__

    def matmul(self, other: "Mat") -> "Mat":
        return Mat._from_ints(_num_product(self, other), self.den * other.den, other.cols)

    def transpose(self) -> "Mat":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return Mat._from_ints(num, self.den, self.rows)

    def col_tuple(self, j: int) -> Vector:
        return tuple(Fraction(row[j], self.den) for row in self.num)

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        ints, scale = clear_denominators([frac(x) for x in vec])
        scale *= self.den
        return tuple(Fraction(sum(map(mul, row, ints)), scale) for row in self.num)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inv = solve(self, Mat.identity(self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _num_product(a: Mat, b: Mat) -> tuple:
    """The integer rows of a.num @ b.num, so a @ b is this over a.den * b.den,
    not yet in lowest terms. Callers that sum several products bring the sum
    to lowest terms once (Mat._from_ints)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    # columns of b; with no rows it still has b.cols empty ones
    cols = list(zip(*b.num)) if b.rows else ((),) * b.cols
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.num)


def _unit(i: int, n: int, s: int = 1) -> tuple:
    """The length-n integer row with s at i and zeros elsewhere."""
    return (0,) * i + (s,) + (0,) * (n - i - 1)


def _product_term(c: int, a: Mat, b: Mat) -> tuple:
    """c * a @ b as a _num_sum term."""
    return c, _num_product(a, b), a.den * b.den


def _num_sum(terms, n: int) -> tuple[tuple, int]:
    """(rows, den) with rows / den the sum of c * rows / d over the terms
    (c, rows, d): integer c, a tuple of equal-length tuples of ints or None
    for the n x n identity, and d > 0. den is the lcm of the d's and the
    sum is not yet in lowest terms (Mat._from_ints). The first rows term's
    factor is applied in the pass that adds the second, so a two-term sum
    is one pass; identity terms are added on the diagonal; with no rows
    term the sum is n x n."""
    den = lcm(*[d for _, _, d in terms])
    acc, g, diag = None, 1, 0
    for c, rows, d in terms:
        f = c * (den // d)
        if rows is None:
            diag += f
        elif acc is None:
            acc, g = rows, f
        else:
            acc = [tuple([g * a + f * b for a, b in zip(r, s)]) for r, s in zip(acc, rows)]
            g = 1
    if acc is None:
        return tuple(_unit(i, n, diag) for i in range(n)), den
    if g != 1:
        acc = [tuple([g * a for a in row]) for row in acc]
    if diag:
        acc = [(*row[:i], row[i] + diag, *row[i + 1 :]) for i, row in enumerate(acc)]
    return tuple(acc), den


def _scalar_entry(rows) -> int | None:
    """s when the square integer rows (tuples) are s times the identity,
    else None; 0 for the empty block."""
    n = len(rows)
    if not n:
        return 0
    s = rows[0][0]
    return s if all(row == _unit(i, n, s) for i, row in enumerate(rows)) else None


def clear_matrix(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(ints, scale) with rows[i][j] == ints[i][j] / scale: one common scale
    for all rows, so a matrix keeps its map up to a scalar."""
    flat, scale = clear_denominators([e for row in rows for e in row])
    n = len(rows[0]) if rows else 0
    return [flat[i * n : (i + 1) * n] for i in range(len(rows))], scale


def _reduce(basis: dict, vec: list[int]) -> list[int]:
    """The remainder of an integer vector against a basis {pivot: row}; it
    is zero exactly when the vector lies in the span. Every row is zero at
    the other rows' pivots, so the rows apply in any order."""
    for p, row in basis.items():
        c = vec[p]
        if c:
            d = row[p]
            vec = [d * a - c * b for a, b in zip(vec, row)]
    return vec


def insert_row(basis: dict, vec: list[int]) -> list[int] | None:
    """Add an integer vector to a Gauss-Jordan basis {pivot: row}.

    A nonzero remainder, divided by its gcd, is cleared from the other rows
    at its first nonzero column, stored and returned; a vector already in
    the span returns None. Each row's pivot stays its first nonzero column.
    """
    vec = _reduce(basis, vec)
    g = gcd(*vec)
    if not g:
        return None
    if g > 1:
        vec = [a // g for a in vec]
    pivot = next(i for i, a in enumerate(vec) if a)
    d = vec[pivot]
    for p, row in basis.items():
        c = row[pivot]
        if c:
            row = [d * a - c * b for a, b in zip(row, vec)]
            g = gcd(*row)
            basis[p] = [a // g for a in row] if g > 1 else row
    basis[pivot] = vec
    return vec


def normalise_basis(basis: dict) -> tuple[Vector, ...]:
    """The canonical RREF rows of a basis {pivot: row}: each row divided by
    its pivot, in pivot order. The RREF is unique, so every basis of one
    span gives the same rows, the ones a Fraction elimination gives."""
    return tuple(
        tuple(Fraction(e, row[p]) if e else _ZERO for e in row)
        for p, row in sorted(basis.items())
    )


def _int_basis(rows: Iterable[Sequence[int]]) -> dict:
    """The Gauss-Jordan basis {pivot: row} of the span of integer rows."""
    basis: dict = {}
    for row in rows:
        insert_row(basis, row)
    return basis


def rank(m: Mat) -> int:
    return len(_int_basis(m.num))


def kernel_rows(basis: dict, n: int) -> dict:
    """{f: row} over the free columns f of a Gauss-Jordan basis {pivot: row}
    of integer rows of length n; the rows span the vectors that every basis
    row annihilates. Row f is L at f, where L is the lcm of the pivots of
    the basis rows nonzero at f, -row[f] * L / row[p] at each such pivot p,
    and zero elsewhere."""
    out = {}
    for f in range(n):
        if f in basis:
            continue
        seen = [(p, row) for p, row in basis.items() if row[f]]
        scale = lcm(*(row[p] for p, row in seen))
        vec = [0] * n
        vec[f] = scale
        for p, row in seen:
            vec[p] = -row[f] * (scale // row[p])
        out[f] = vec
    return out


def kernel_basis(m: Mat) -> tuple[Vector, ...]:
    """Basis of {x : m @ x = 0}, as tuples of length m.cols: one vector per
    free column f, with 1 at f. kernel_rows keys each row by its free
    column, the row's own nonzero entry there, so normalise_basis divides
    by exactly that entry."""
    return normalise_basis(kernel_rows(_int_basis(m.num), m.cols))


def solve(a: Mat, b: Mat) -> Mat | None:
    """One particular X with a @ X = b, or None if inconsistent."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in solve")
    n, k = a.cols, b.cols
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    basis = _int_basis(
        [sa * x for x in ra] + [sb * x for x in rb] for ra, rb in zip(a.num, b.num)
    )
    if any(p >= n for p in basis):
        return None  # a pivot on the right-hand side: inconsistent
    # row p of X is the right-hand part of the basis row at pivot p over
    # its pivot entry, zero where column p is free
    den = lcm(*(row[p] for p, row in basis.items()))
    num = [(0,) * k] * n
    for p, row in basis.items():
        c = den // row[p]
        num[p] = tuple(c * x for x in row[n:])
    return Mat._from_ints(tuple(num), den, k)


def charpoly(m: Mat) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial of a square matrix.

    Returns coefficients (1, c1, ..., cn) of x^n + c1 x^(n-1) + ... + cn,
    computed by the Faddeev-LeVerrier recurrence on the integer matrix
    B = s*m, where s is the lcm of all denominators in m:

        M_1 = I,  b_k = -tr(B M_k) / k,  M_{k+1} = B M_k + b_k I.

    The b_k are the coefficients of the characteristic polynomial of B, an
    integer matrix, so every M_k is an integer matrix and each division by
    k is exact. Then c_k = b_k / s**k.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    b, s = m.num, m.den
    coeffs = [_ONE]
    mk_cols = [_unit(j, n) for j in range(n)]
    for k in range(1, n + 1):
        am = [[sum(map(mul, row, col)) for col in mk_cols] for row in b]
        bk = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(Fraction(bk, s**k))
        for i in range(n):
            am[i][i] += bk
        mk_cols = list(zip(*am))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Subspaces of Q^n, stored as canonical RREF row bases (tuples of tuples).
# The zero subspace is the empty tuple.

def _checked_rows(vectors: Iterable[Sequence], dim: int) -> list[list[Fraction]]:
    rows = [[frac(x) for x in v] for v in vectors]
    for v in rows:
        if len(v) != dim:
            raise ValueError("vector of wrong length in span")
    return rows


def _cleared_basis(rows: Iterable[Sequence]) -> dict:
    return _int_basis(clear_denominators(row)[0] for row in rows)


def reduce_span(vectors: Iterable[Sequence], dim: int) -> tuple[Vector, ...]:
    return normalise_basis(_cleared_basis(_checked_rows(vectors, dim)))


def in_span(vec: Sequence, basis: tuple[Vector, ...], dim: int) -> bool:
    """Whether vec lies in the span of basis, which need not be canonical
    or even independent."""
    *rows, last = _checked_rows([*basis, vec], dim)
    return not any(_reduce(_cleared_basis(rows), clear_denominators(last)[0]))


def span_sum(b1, b2, dim: int) -> tuple[Vector, ...]:
    return reduce_span(list(b1) + list(b2), dim)


def _annihilator(basis, dim: int) -> tuple[Vector, ...]:
    """The covectors vanishing on the row span of basis, inside Q^dim."""
    return kernel_basis(Mat(basis, cols=dim))


def span_intersect(b1, b2, dim: int) -> tuple[Vector, ...]:
    """Intersection of two row-span subspaces of Q^dim: ann(ann b1 + ann b2)."""
    return reduce_span(_annihilator(_annihilator(b1, dim) + _annihilator(b2, dim), dim), dim)


def preimage_span(x: Mat, target: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """{v : x @ v lies in the row-span `target`} as a subspace of Q^x.cols:
    the kernel of ann(target) @ x."""
    ann = Mat(_annihilator(target, x.rows), cols=x.rows)
    return reduce_span(kernel_basis(ann.matmul(x)), x.cols)


def image_span(x: Mat, source: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Row-span of {x @ v : v in source span}, inside Q^x.rows."""
    vecs = [x.apply(v) for v in source]
    return reduce_span(vecs, x.rows)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot length mismatch")
    return sum((frac(a) * frac(b) for a, b in zip(u, v)), Fraction(0))
