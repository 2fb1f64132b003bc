import random
from fractions import Fraction

import pytest

from quiverlab.exactlinalg import (
    Mat,
    charpoly,
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
