"""Exact dense linear algebra over the rationals.

Matrices and vectors hold Fractions. Elimination runs in one kernel,
_rref_inplace, on integer rows: each row is cleared of denominators, reduced
by integer cross multiplication with gcd normalisation, and turned back into
Fractions only once, divided by its pivot. That is fine at the matrix sizes
this package works with (dimensions rarely above 10). Subspaces are
represented by canonical reduced-row-echelon bases, so two equal subspaces
always carry identical basis tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple  # tuple of Fractions

_ZERO = Fraction(0)


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


class Mat:
    """Immutable rational matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(frac(e) for e in row) for row in data)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged matrix data")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(((Fraction(0),) * cols for _ in range(rows)), cols=cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(
            (tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)),
            cols=n,
        )

    @staticmethod
    def column(entries: Sequence) -> "Mat":
        return Mat(((e,) for e in entries), cols=1)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat.zero({self.rows}, {self.cols})"
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Mat[{body}]"

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            (tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
            cols=self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat((tuple(-a for a in row) for row in self.data), cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        s = frac(other)
        return Mat((tuple(a * s for a in row) for row in self.data), cols=self.cols)

    __rmul__ = __mul__

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # columns of other; with no rows it still has other.cols empty ones
        ot = tuple(zip(*other.data)) if other.rows else ((),) * other.cols
        return Mat(
            (tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.data),
            cols=other.cols,
        )

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat(tuple(() for _ in range(self.cols)), cols=0)
        return Mat(zip(*self.data), cols=self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)

    def scaled_identity_value(self) -> Fraction | None:
        """The scalar s with self == s*Id, or None if self is not scalar."""
        if self.rows != self.cols:
            return None
        if self.rows == 0:
            return Fraction(0)
        s = self.data[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                if self.data[i][j] != (s if i == j else 0):
                    return None
        return s

    def col_tuple(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * frac(x) for a, x in zip(row, vec)) for row in self.data)

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


def _rref_inplace(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Each row is scaled to integers by the lcm of its entries' denominators,
    and Gauss-Jordan runs on Python ints: a row is updated by cross
    multiplication with the pivot row and divided by the gcd of its
    entries. Only at the end is each pivot row divided by its pivot, one
    Fraction per nonzero entry. The RREF is unique, so this is the same
    basis a Fraction elimination gives. ``rows`` is replaced by the pivot
    rows.
    """
    ints = []
    for row in rows:
        scale = lcm(*(e.denominator for e in row))
        ints.append([e.numerator * (scale // e.denominator) for e in row])
    ncols = len(ints[0]) if ints else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(ints):
            break
        pivot_row = next((i for i in range(r, len(ints)) if ints[i][c]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        top = ints[r]
        pv = top[c]
        for i, row in enumerate(ints):
            f = row[c]
            if f and i != r:
                row = [pv * a - f * b for a, b in zip(row, top)]
                g = gcd(*row)
                ints[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
    rows[:] = [[Fraction(e, row[p]) if e else _ZERO for e in row] for row, p in zip(ints, pivots)]
    return rows, pivots


def rank(m: Mat) -> int:
    rows = [list(r) for r in m.data]
    _, pivots = _rref_inplace(rows)
    return len(pivots)


def kernel_basis(m: Mat) -> tuple[Vector, ...]:
    """Basis of {x : m @ x = 0}, as tuples of length m.cols."""
    n = m.cols
    rows = [list(r) for r in m.data]
    reduced, pivots = _rref_inplace(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def solve(a: Mat, b: Mat) -> Mat | None:
    """One particular X with a @ X = b, or None if inconsistent."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in solve")
    n, k = a.cols, b.cols
    aug = [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
    reduced, pivots = _rref_inplace(aug)
    sol = [[Fraction(0)] * k for _ in range(n)]
    for r, p in enumerate(pivots):
        if p >= n:
            return None  # a pivot on the right-hand side: inconsistent
        for j in range(k):
            sol[p][j] = reduced[r][n + j]
    return Mat(sol, cols=k)


def charpoly(m: Mat) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial of a square matrix.

    Returns coefficients (1, c1, ..., cn) of x^n + c1 x^(n-1) + ... + cn,
    computed by the Faddeev-LeVerrier recurrence (exact over Q).
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        am = m.matmul(mk)
        ck = -am.trace() / k
        coeffs.append(ck)
        mk = am + ck * Mat.identity(n)
    return tuple(coeffs)


def left_inverse(c: Mat) -> Mat:
    """L with L @ c = Id for an injective matrix c (full column rank)."""
    sol = solve(c.transpose(), Mat.identity(c.cols))
    if sol is None:
        raise ValueError("matrix has no left inverse (not injective)")
    return sol.transpose()


def left_kernel_basis(m: Mat) -> tuple[Vector, ...]:
    """Basis of {y : y @ m = 0} (row vectors)."""
    return kernel_basis(m.transpose())


# ---------------------------------------------------------------------------
# Subspaces of Q^n, stored as canonical RREF row bases (tuples of tuples).
# The zero subspace is the empty tuple.

def reduce_span(vectors: Iterable[Sequence], dim: int) -> tuple[Vector, ...]:
    rows = [[frac(x) for x in v] for v in vectors]
    for v in rows:
        if len(v) != dim:
            raise ValueError("vector of wrong length in span")
    reduced, _ = _rref_inplace(rows)
    return tuple(map(tuple, reduced))


def in_span(vec: Sequence, basis: tuple[Vector, ...], dim: int) -> bool:
    joined = reduce_span(list(basis) + [tuple(vec)], dim)
    return len(joined) == len(basis)


def span_sum(b1, b2, dim: int) -> tuple[Vector, ...]:
    return reduce_span(list(b1) + list(b2), dim)


def span_intersect(b1, b2, dim: int) -> tuple[Vector, ...]:
    """Intersection of two row-span subspaces of Q^dim."""
    if not b1 or not b2:
        return ()
    # v in both spans: v = a.b1 = c.b2; kernel of [b1^T | -b2^T].
    k1, k2 = len(b1), len(b2)
    stacked = Mat(
        (
            tuple(b1[i][r] for i in range(k1)) + tuple(-b2[j][r] for j in range(k2))
            for r in range(dim)
        ),
        cols=k1 + k2,
    )
    vecs = []
    for kv in kernel_basis(stacked):
        coeffs = kv[:k1]
        v = tuple(
            sum(coeffs[i] * b1[i][r] for i in range(k1)) for r in range(dim)
        )
        vecs.append(v)
    return reduce_span(vecs, dim)


def preimage_span(x: Mat, target: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """{v : x @ v lies in the row-span `target`} as a subspace of Q^x.cols."""
    n = x.cols
    k = len(target)
    if k == 0:
        return reduce_span(kernel_basis(x), n)
    # x v = target^T y  <=>  [x | -target^T] (v; y) = 0
    rows = []
    for i in range(x.rows):
        rows.append(tuple(x.data[i]) + tuple(-target[j][i] for j in range(k)))
    stacked = Mat(rows, cols=n + k)
    vecs = [kv[:n] for kv in kernel_basis(stacked)]
    return reduce_span(vecs, n)


def image_span(x: Mat, source: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Row-span of {x @ v : v in source span}, inside Q^x.rows."""
    vecs = [x.apply(v) for v in source]
    return reduce_span(vecs, x.rows)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot length mismatch")
    return sum((frac(a) * frac(b) for a, b in zip(u, v)), Fraction(0))
