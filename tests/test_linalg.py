import random
from fractions import Fraction

import pytest

from quiverlab.exactlinalg import (
    Mat,
    charpoly,
    frac,
    in_span,
    kernel_basis,
    left_inverse,
    left_kernel_basis,
    preimage_span,
    rank,
    reduce_span,
    solve,
    span_intersect,
    span_sum,
)


def rand_mat(rng, r, c, lo=-5, hi=5):
    return Mat([[Fraction(rng.randint(lo, hi)) for _ in range(c)] for _ in range(r)])


def test_basic_arithmetic():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a + b == Mat([[1, 3], [4, 4]])
    assert a - a == Mat.zero(2, 2)
    assert a.matmul(b) == Mat([[2, 1], [4, 3]])
    assert (2 * a).data[1][1] == 8
    assert a.transpose() == Mat([[1, 3], [2, 4]])


def test_rank_kernel_against_brute_force():
    rng = random.Random(1)
    for _ in range(50):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        kb = kernel_basis(m)
        # kernel vectors really are in the kernel
        for v in kb:
            assert all(x == 0 for x in m.apply(v))
        # rank-nullity
        assert rank(m) + len(kb) == m.cols


def test_solve_consistent_and_inconsistent():
    a = Mat([[1, 2], [2, 4]])
    assert solve(a, Mat.column([1, 2])) is not None
    assert solve(a, Mat.column([1, 3])) is None
    rng = random.Random(2)
    for _ in range(30):
        m = rand_mat(rng, 3, 3)
        x = rand_mat(rng, 3, 2)
        sol = solve(m, m.matmul(x))
        assert sol is not None
        assert m.matmul(sol) == m.matmul(x)


def test_charpoly_matches_eigenvalue_product():
    # eigenvalues 4 and 1: x^2 - 5x + 4
    m = Mat([[4, 5], [0, 1]])
    assert charpoly(m) == (Fraction(1), Fraction(-5), Fraction(4))
    # companion matrix of x^3 - 2x + 7
    comp = Mat([[0, 0, -7], [1, 0, 2], [0, 1, 0]])
    assert charpoly(comp) == (Fraction(1), Fraction(0), Fraction(-2), Fraction(7))


def test_charpoly_conjugation_invariant():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_mat(rng, 3, 3)
        while True:
            g = rand_mat(rng, 3, 3)
            if rank(g) == 3:
                break
        conj = g.matmul(m).matmul(g.inverse())
        assert charpoly(conj) == charpoly(m)


def test_inverse():
    m = Mat([[2, 1], [1, 1]])
    assert m.matmul(m.inverse()) == Mat.identity(2)
    with pytest.raises(ValueError):
        Mat([[1, 1], [1, 1]]).inverse()


def test_left_inverse_and_left_kernel():
    rng = random.Random(4)
    for _ in range(20):
        c = rand_mat(rng, 3, 2)
        if rank(c) < 2:
            continue
        li = left_inverse(c)
        assert li.matmul(c) == Mat.identity(2)
        (z,) = left_kernel_basis(c)
        assert all(x == 0 for x in Mat([z]).matmul(c).data[0])


def test_span_operations():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    u = reduce_span([e1, e2], 3)
    w = reduce_span([e2, e3], 3)
    assert len(span_sum(u, w, 3)) == 3
    inter = span_intersect(u, w, 3)
    assert len(inter) == 1 and in_span(e2, inter, 3)
    assert span_intersect(u, (), 3) == ()


def test_preimage_span():
    x = Mat([[1, 0], [0, 0]])
    # preimage of zero subspace = kernel
    pre = preimage_span(x, ())
    assert len(pre) == 1 and in_span((0, 1), pre, 2)
    # preimage of the full line spanned by e1
    pre2 = preimage_span(x, reduce_span([(1, 0)], 2))
    assert len(pre2) == 2


def test_preimage_randomized_membership():
    rng = random.Random(5)
    for _ in range(30):
        x = rand_mat(rng, 3, 3)
        target = reduce_span([tuple(rand_mat(rng, 1, 3).data[0]) for _ in range(2)], 3)
        pre = preimage_span(x, target)
        for v in pre:
            assert in_span(x.apply(v), target, 3)


def test_solve_matches_sympy_ranks():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)

    def rand_rows(r, c):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]

    def product(u, v, inner, cols):
        return [[sum((row[t] * v[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
                for row in u]

    def sym(rows, cols):
        return sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator)
                                              for row in rows for x in row])

    outcomes = {True: 0, False: 0}
    for trial in range(500):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        r = rng.randint(0, min(m, n))  # planted rank of A
        a = product(rand_rows(m, r), rand_rows(r, n), r, n)
        # half the right-hand sides lie in the column space, half are random
        b = product(a, rand_rows(n, k), n, k) if trial % 2 else rand_rows(m, k)
        x = solve(Mat(a, cols=n), Mat(b, cols=k))
        consistent = sym(a, n).rank() == sympy.Matrix.hstack(sym(a, n), sym(b, k)).rank()
        assert (x is not None) == consistent
        if x is not None:
            assert (x.rows, x.cols) == (n, k)
            assert Mat(a, cols=n).matmul(x) == Mat(b, cols=k)
        outcomes[consistent] += 1
    assert min(outcomes.values()) > 100


def _fraction_rref(rows):
    """Gauss-Jordan over Fractions: the pivot row is divided by its pivot,
    then cleared from every other row. Returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    pivots, r = [], 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
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


def _reference_span(rows):
    reduced, pivots = _fraction_rref([list(r) for r in rows])
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def _reference_kernel(rows, n):
    reduced, pivots = _fraction_rref([list(r) for r in rows])
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def _reference_solve(a_rows, b_rows, n, k):
    reduced, pivots = _fraction_rref([list(ra) + list(rb) for ra, rb in zip(a_rows, b_rows)])
    if any(p >= n for p in pivots):
        return None
    sol = [[Fraction(0)] * k for _ in range(n)]
    for r, p in enumerate(pivots):
        sol[p] = reduced[r][n:]
    return Mat(sol, cols=k)


def _kernel_cases(seed, count):
    """(rows, cols) pairs: empty, tall, wide and square shapes with mixed
    denominators and signs, zero rows and columns, repeated and scaled rows
    and planted low rank."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 12)))

    for _ in range(count):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        rank = rng.randint(0, min(r, c))
        if rng.random() < 0.5 and rank:
            left = [[entry() for _ in range(rank)] for _ in range(r)]
            right = [[entry() for _ in range(c)] for _ in range(rank)]
            rows = [[sum((u[t] * right[t][j] for t in range(rank)), Fraction(0)) for j in range(c)]
                    for u in left]
        else:
            rows = [[entry() for _ in range(c)] for _ in range(r)]
        for row in rows:
            pick = rng.random()
            if pick < 0.1:
                row[:] = [Fraction(0)] * c
            elif pick < 0.2 and c:
                row[rng.randrange(c)] = Fraction(0)
        if c and rng.random() < 0.2:
            j = rng.randrange(c)
            for row in rows:
                row[j] = Fraction(0)
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [-2 * e for e in rng.choice(rows)])
        if rows and rng.random() < 0.2:
            rows.append(list(rng.choice(rows)))
        yield [tuple(row) for row in rows], c


def test_integer_kernel_matches_fraction_elimination():
    rng = random.Random(41)
    shapes = set()
    for rows, c in _kernel_cases(40, 400):
        m = Mat(rows, cols=c)
        shapes.add((len(rows) > c) - (len(rows) < c))
        assert reduce_span(rows, c) == _reference_span(rows)
        assert kernel_basis(m) == _reference_kernel(rows, c)
        assert rank(m) == len(_reference_span(rows))
        k = rng.randint(1, 3)
        if rng.random() < 0.5 and c:
            x = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)] for _ in range(c)]
            b = [[sum((row[t] * x[t][j] for t in range(c)), Fraction(0)) for j in range(k)] for row in rows]
        else:
            b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)] for _ in rows]
        assert solve(m, Mat(b, cols=k)) == _reference_solve(rows, b, c, k)
    assert shapes == {-1, 0, 1}
    assert reduce_span([], 3) == () and kernel_basis(Mat([], cols=0)) == ()
    assert kernel_basis(Mat([], cols=2)) == ((1, 0), (0, 1))


def test_integer_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def rat(e):
        return sympy.Rational(e.numerator, e.denominator)

    def frac_of(e):
        return Fraction(int(e.p), int(e.q))

    for rows, c in _kernel_cases(43, 250):
        sm = sympy.Matrix(len(rows), c, [rat(e) for row in rows for e in row])
        reduced, pivots = sm.rref()
        expected = tuple(tuple(frac_of(e) for e in reduced.row(i)) for i in range(len(pivots)))
        assert reduce_span(rows, c) == expected
        null = tuple(tuple(frac_of(e) for e in v) for v in sm.nullspace())
        assert kernel_basis(Mat(rows, cols=c)) == null
        if rows and len(rows) == c:
            coeffs = sm.charpoly(x).all_coeffs()
            assert charpoly(Mat(rows, cols=c)) == tuple(frac_of(sympy.Rational(e)) for e in coeffs)


def test_frac_refuses_bool():
    for flag in (True, False):
        with pytest.raises(TypeError):
            frac(flag)
    assert frac(1) == 1 and frac("-3/6") == Fraction(-1, 2)
