"""Exact dense linear algebra over the rationals.

Matrices and vectors hold Fractions, but the kernels run on Python ints.
clear_denominators turns a row into integers and one scale, clear_matrix a
matrix. Elimination has one step, insert_row, which adds an integer row to
a Gauss-Jordan basis {pivot: row} by cross multiplication and gcd division
(integer rows, in the style of Bareiss); normalise_basis divides each row
by its pivot once, at the end. Mat.matmul and Mat.apply clear each row of
the left factor and each column (or the vector) on the right, so an entry
is one integer dot product made into one Fraction. charpoly runs its
recurrence on the integer matrix. That is fine at the matrix sizes this
package works with (dimensions rarely above 10).
Subspaces are represented by canonical reduced-row-echelon bases, so two
equal subspaces always carry identical basis tuples.

Mat(...) coerces and checks outside data. Mat._exact wraps entries that are
already Fractions without either step; it is internal to this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg
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

    @staticmethod
    def _exact(rows: tuple, cols: int) -> "Mat":
        """A Mat over a tuple of equal-length tuples of Fractions, taken as
        is: no coercion, no ragged check. Internal to this module."""
        m = object.__new__(Mat)
        object.__setattr__(m, "data", rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat._exact(((_ZERO,) * cols,) * rows, cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._exact(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n
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
        return Mat._exact(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.data, other.data)), self.cols
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat._exact(tuple(tuple(map(neg, row)) for row in self.data), self.cols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        s = frac(other)
        return Mat._exact(tuple(tuple(a * s for a in row) for row in self.data), self.cols)

    __rmul__ = __mul__

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # columns of other; with no rows it still has other.cols empty ones
        ot = zip(*other.data) if other.rows else ((),) * other.cols
        cols = [clear_denominators(col) for col in ot]
        return Mat._exact(
            tuple(
                tuple(Fraction(sum(map(mul, row, col)), rs * cs) for col, cs in cols)
                for row, rs in map(clear_denominators, self.data)
            ),
            other.cols,
        )

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat._exact(((),) * self.cols, 0)
        return Mat._exact(tuple(zip(*self.data)), self.rows)

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
        ints, scale = clear_denominators([frac(x) for x in vec])
        return tuple(
            Fraction(sum(map(mul, row, ints)), rs * scale)
            for row, rs in map(clear_denominators, self.data)
        )

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


def _int_basis(rows: Iterable[Sequence]) -> dict:
    basis: dict = {}
    for row in rows:
        insert_row(basis, clear_denominators(row)[0])
    return basis


def rank(m: Mat) -> int:
    return len(_int_basis(m.data))


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
    free column f, with 1 at f."""
    return tuple(
        tuple(Fraction(e, row[f]) if e else _ZERO for e in row)
        for f, row in kernel_rows(_int_basis(m.data), m.cols).items()
    )


def solve(a: Mat, b: Mat) -> Mat | None:
    """One particular X with a @ X = b, or None if inconsistent."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in solve")
    n, k = a.cols, b.cols
    basis = _int_basis(list(ra) + list(rb) for ra, rb in zip(a.data, b.data))
    if any(p >= n for p in basis):
        return None  # a pivot on the right-hand side: inconsistent
    sol = [(_ZERO,) * k] * n
    for p, row in zip(sorted(basis), normalise_basis(basis)):
        sol[p] = row[n:]
    return Mat._exact(tuple(sol), k)


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
    b, s = clear_matrix(m.data)
    coeffs = [_ONE]
    mk_cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for k in range(1, n + 1):
        am = [[sum(map(mul, row, col)) for col in mk_cols] for row in b]
        bk = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(Fraction(bk, s**k))
        for i in range(n):
            am[i][i] += bk
        mk_cols = list(zip(*am))
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

def _checked_rows(vectors: Iterable[Sequence], dim: int) -> list[list[Fraction]]:
    rows = [[frac(x) for x in v] for v in vectors]
    for v in rows:
        if len(v) != dim:
            raise ValueError("vector of wrong length in span")
    return rows


def reduce_span(vectors: Iterable[Sequence], dim: int) -> tuple[Vector, ...]:
    return normalise_basis(_int_basis(_checked_rows(vectors, dim)))


def in_span(vec: Sequence, basis: tuple[Vector, ...], dim: int) -> bool:
    """Whether vec lies in the span of basis, which need not be canonical
    or even independent."""
    *rows, last = _checked_rows([*basis, vec], dim)
    return not any(_reduce(_int_basis(rows), clear_denominators(last)[0]))


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
