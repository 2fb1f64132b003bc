"""Exact dense linear algebra over the rationals.

Everything here is Fraction-based and allocation heavy, which is fine at
the matrix sizes this package works with (dimensions rarely above 10).
Subspaces are represented by canonical reduced-row-echelon bases, so two
equal subspaces always carry identical basis tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple  # tuple of Fractions


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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
        if self.rows == 0:
            return self
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
        ot = tuple(zip(*other.data)) if other.rows else ((),) * 0
        out = []
        for row in self.data:
            if other.cols and other.rows:
                out.append(tuple(sum(a * b for a, b in zip(row, col)) for col in ot))
            else:
                out.append((Fraction(0),) * other.cols)
        return Mat(out, cols=other.cols)

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
        n = self.rows
        aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
               for i, row in enumerate(self.data)]
        reduced, pivots = _rref_inplace(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Mat((row[n:] for row in reduced), cols=n)

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _rref_inplace(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
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
    for i in range(len(reduced)):
        if all(reduced[i][c] == 0 for c in range(n)) and any(
            reduced[i][n + j] != 0 for j in range(k)
        ):
            return None
    sol = [[Fraction(0)] * k for _ in range(n)]
    for r, p in enumerate(pivots):
        if p >= n:
            return None
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
    reduced, pivots = _rref_inplace(rows)
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def span_dim(basis: tuple[Vector, ...]) -> int:
    return len(basis)


def full_span(dim: int) -> tuple[Vector, ...]:
    return tuple(Mat.identity(dim).data)


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
