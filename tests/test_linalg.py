import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from quiverlab.exactlinalg import (
    Mat,
    _num_sum,
    _scalar_entry,
    charpoly,
    dot,
    frac,
    image_span,
    in_span,
    kernel_basis,
    preimage_span,
    rank,
    reduce_span,
    solve,
    span_intersect,
    span_sum,
)


def rand_mat(rng, r, c, lo=-5, hi=5):
    return Mat([[Fraction(rng.randint(lo, hi)) for _ in range(c)] for _ in range(r)])


def column(entries):
    return Mat(((e,) for e in entries), cols=1)


def left_inverse(c):
    """L with L @ c = Id for an injective matrix c (full column rank)."""
    sol = solve(c.transpose(), Mat.identity(c.cols))
    if sol is None:
        raise ValueError("matrix has no left inverse (not injective)")
    return sol.transpose()


def left_kernel_basis(m):
    """Basis of {y : y @ m = 0} (row vectors)."""
    return kernel_basis(m.transpose())


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
    assert solve(a, column([1, 2])) is not None
    assert solve(a, column([1, 3])) is None
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


def test_in_span_matches_rank_oracle():
    # the basis is the raw row list, with zero, repeated and scaled rows,
    # and the canonical RREF of it; the oracle compares reference ranks
    rng = random.Random(49)
    verdicts, dependent = {True: 0, False: 0}, 0
    for rows, c in _kernel_cases(49, 300):
        span_rank = len(_reference_span(rows))
        dependent += span_rank < len(rows)
        combo = [sum((rng.randint(-3, 3) * row[j] for row in rows), Fraction(0)) for j in range(c)]
        free = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
        for vec in (combo, free, *rows[:2]):
            expected = len(_reference_span([*rows, vec])) == span_rank
            assert in_span(vec, tuple(rows), c) == expected
            assert in_span(vec, reduce_span(rows, c), c) == expected
            verdicts[expected] += 1
    assert min(verdicts.values()) > 100 and dependent > 50
    with pytest.raises(ValueError, match="wrong length"):
        in_span((1,), ((1, 0),), 2)


def _fraction_matmul(a, b, m):
    """Product of row lists a (n x k) and b (k x m), one Fraction product
    and sum at a time."""
    cols = list(zip(*b)) if b else [()] * m
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
                 for row in a)


def _fraction_apply(rows, vec):
    return tuple(sum((a * Fraction(x) for a, x in zip(row, vec)), Fraction(0)) for row in rows)


def _fraction_charpoly(rows):
    """Faddeev-LeVerrier over Fractions: M_1 = I, c_k = -tr(A M_k)/k,
    M_{k+1} = A M_k + c_k I."""
    n = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs, mk = [Fraction(1)], ident
    for k in range(1, n + 1):
        am = _fraction_matmul(rows, mk, n)
        ck = -sum((am[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        mk = [[a + ck * e for a, e in zip(ra, ri)] for ra, ri in zip(am, ident)]
    return tuple(coeffs)


def _all_fractions(entries):
    return all(type(e) is Fraction for e in entries)


def test_integer_products_match_fraction_products():
    rng = random.Random(46)
    right = _kernel_cases(47, 400)
    empty = set()
    for rows, k in _kernel_cases(46, 400):
        # a right factor with k rows, cut or padded from the next case
        b, m = next(right)
        b = [row[:m] for row in b[:k]] + [tuple(Fraction(rng.randint(-4, 4), 3) for _ in range(m))
                                          for _ in range(k - len(b))]
        empty.update(axis for axis, size in zip("nkm", (len(rows), k, m)) if size == 0)
        a_mat, b_mat = Mat(rows, cols=k), Mat(b, cols=m)
        product = a_mat.matmul(b_mat)
        assert (product.rows, product.cols) == (len(rows), m)
        assert product.data == _fraction_matmul(rows, b, m)
        assert _all_fractions(e for row in product.data for e in row)
        vec = [rng.choice((0, rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 9))))
               for _ in range(k)]
        image = a_mat.apply(vec)
        assert image == _fraction_apply(rows, vec) and _all_fractions(image)
        n = min(len(rows), k)
        square = [row[:n] for row in rows[:n]]
        poly = charpoly(Mat(square, cols=n))
        assert poly == _fraction_charpoly(square) and _all_fractions(poly)
    assert empty == {"n", "k", "m"}


def _assert_lowest_terms(m):
    """num is a tuple of int tuples of m's shape over an int den > 0, with
    gcd(den, every numerator) = 1."""
    assert type(m.den) is int and m.den > 0
    assert type(m.num) is tuple and len(m.num) == m.rows
    assert all(type(row) is tuple and len(row) == m.cols for row in m.num)
    assert all(type(a) is int for row in m.num for a in row)
    assert gcd(m.den, *(a for row in m.num for a in row)) == 1


def test_exact_constructor_matches_checked_constructor():
    rng = random.Random(48)
    for rows, c in _kernel_cases(48, 200):
        checked = Mat(rows, cols=c)
        # the same entries over a common denominator times a spare factor,
        # which the integer constructor must cancel
        den = lcm(*(e.denominator for row in rows for e in row)) * rng.randint(1, 6)
        nums = tuple(tuple(int(e * den) for e in row) for row in rows)
        exact = Mat._from_ints(nums, den, c)
        assert exact == checked and hash(exact) == hash(checked)
        n = min(len(rows), c)
        results = [
            exact, checked + checked, -checked, Fraction(-3, 4) * checked, checked - checked,
            checked.transpose(), checked.matmul(checked.transpose()),
            Mat.identity(n), Mat.zero(len(rows), c), Mat.zero(0, c), Mat.zero(c, 0),
        ]
        sol = solve(checked, checked.matmul(Mat.identity(c)))
        assert sol is not None
        results.append(sol)
        for r in results:
            rebuilt = Mat([list(row) for row in r.data], cols=r.cols)
            assert r == rebuilt and hash(r) == hash(rebuilt)
            assert (r.rows, r.cols) == (rebuilt.rows, rebuilt.cols)
            assert all(len(row) == r.cols for row in r.data)
            assert _all_fractions(e for row in r.data for e in row)
            _assert_lowest_terms(r)


def _fraction_inverse(rows):
    """The inverse of a square Fraction row list, or None if singular."""
    n = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = _fraction_rref([list(r) + e for r, e in zip(rows, ident)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def _fraction_scalar(rows):
    n = len(rows)
    if n == 0:
        return Fraction(0)
    s = rows[0][0]
    same = all(rows[i][j] == (s if i == j else 0) for i in range(n) for j in range(n))
    return s if same else None


def test_integer_mat_matches_fraction_reference():
    rng = random.Random(50)
    seen = set()
    for (rows, c), (right, m) in zip(_kernel_cases(50, 300), _kernel_cases(51, 300)):
        r = len(rows)
        seen.update(axis for axis, size in (("rows", r), ("cols", c)) if size == 0)
        a = Mat(rows, cols=c)
        other = [[Fraction(rng.randint(-6, 6), rng.randint(1, 8)) for _ in range(c)] for _ in range(r)]
        b = Mat(other, cols=c)
        right = [list(row[:m]) + [Fraction(0)] * (m - len(row)) for row in right[:c]]
        right += [[Fraction(rng.randint(-4, 4), 5)] * m for _ in range(c - len(right))]
        scalar = rng.choice((0, 1, -1, rng.randint(-7, 7), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        cases = [
            (a + b, [[x + y for x, y in zip(u, v)] for u, v in zip(rows, other)], c),
            (a - b, [[x - y for x, y in zip(u, v)] for u, v in zip(rows, other)], c),
            (-a, [[-x for x in u] for u in rows], c),
            (scalar * a, [[scalar * x for x in u] for u in rows], c),
            (a * scalar, [[x * scalar for x in u] for u in rows], c),
            (a.transpose(), [[u[j] for u in rows] for j in range(c)], r),
            (a.matmul(Mat(right, cols=m)), _fraction_matmul(rows, right, m), m),
        ]
        for got, expected, cols in cases:
            _assert_lowest_terms(got)
            assert (got.rows, got.cols) == (len(expected), cols)
            assert got.data == tuple(map(tuple, expected))
            assert _all_fractions(e for row in got.data for e in row)
        vec = [rng.choice((0, rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 9))))
               for _ in range(c)]
        image = a.apply(vec)
        assert image == _fraction_apply(rows, vec) and _all_fractions(image)
        for j in range(c):
            column = a.col_tuple(j)
            assert column == tuple(u[j] for u in rows) and _all_fractions(column)
        n = min(r, c)
        square = [u[:n] for u in rows[:n]]
        diagonal = [[Fraction(int(i == j)) * scalar for j in range(n)] for i in range(n)]
        for sq in (square, diagonal):
            m, expected = Mat(sq, cols=n), _fraction_scalar(sq)
            assert _scalar_entry(m.num) == (None if expected is None else expected * m.den)
        inverse = _fraction_inverse(square)
        if inverse is None:
            with pytest.raises(ValueError, match="singular"):
                Mat(square, cols=n).inverse()
        else:
            got = Mat(square, cols=n).inverse()
            _assert_lowest_terms(got)
            assert got.data == inverse
        # equal matrices reached by different routes compare and hash equal
        for route in (
            (3 * a) * Fraction(1, 3), a.transpose().transpose(), a + Mat.zero(r, c),
            (a - b) + b, -(-a), Fraction(7, 2) * (Fraction(2, 7) * a),
        ):
            _assert_lowest_terms(route)
            assert route == a and hash(route) == hash(a)
        assert a - a == Mat.zero(r, c) and (a - a).den == 1
        assert 0 * a == Mat.zero(r, c) and hash(0 * a) == hash(Mat.zero(r, c))
    assert seen == {"rows", "cols"}


def test_num_sum_matches_fraction_sums():
    rng = random.Random(60)
    seen = set()
    for _ in range(600):
        n = rng.choice((0, 1, 1, 2, 3, 4))
        square = rng.random() < 0.7
        cols = n if square else rng.randint(0, 4)
        kind = rng.choice(("equal", "coprime", "any"))
        count = rng.randint(1, 4)
        if kind == "equal":
            dens = [rng.randint(1, 12)] * count
        elif kind == "coprime":
            dens = rng.sample((1, 2, 3, 5, 7, 11, 13), count)
        else:
            dens = [rng.randint(1, 12) for _ in range(count)]
        terms, expected = [], [[Fraction(0)] * cols for _ in range(n)]
        for d in dens:
            c = rng.choice((0, 1, -1, rng.randint(-50, 50)))
            if square and rng.random() < 0.3:
                rows = None
                entries = [[int(i == j) for j in range(n)] for i in range(n)]
            else:
                rows = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(n))
                entries = rows
            terms.append((c, rows, d))
            for i in range(n):
                for j in range(cols):
                    expected[i][j] += Fraction(c * entries[i][j], d)
            seen.add({0: "zero", 1: "one", -1: "minus one"}.get(c, "other"))
            seen.add("identity" if rows is None else "rows")
        got, den = _num_sum(terms, n)
        assert den == lcm(*dens)
        assert isinstance(got, tuple) and len(got) == n
        assert all(type(row) is tuple and len(row) == cols for row in got)
        assert all(type(a) is int for row in got for a in row)
        assert [[Fraction(a, den) for a in row] for row in got] == expected
        seen.update({f"{n}x{cols}", kind})
        seen.add("identity only" if all(rows is None for _, rows, _ in terms) else "mixed")
    assert {"zero", "one", "minus one", "other", "identity", "rows", "identity only",
            "equal", "coprime", "0x0", "1x1"} <= seen, seen


def test_scalar_entry_matches_fraction_reference():
    rng = random.Random(61)
    counts = {"scalar": 0, "not scalar": 0}
    for _ in range(400):
        n = rng.randint(0, 4)
        s = rng.choice((0, 1, -1, rng.randint(-9, 9)))
        rows = [[s * (i == j) for j in range(n)] for i in range(n)]
        if n and rng.random() < 0.5:
            # near-scalar: one entry moved by one
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.choice((-1, 1))
        ints = tuple(map(tuple, rows))
        expected = _fraction_scalar(rows)
        assert _scalar_entry(ints) == expected
        counts["scalar" if expected is not None else "not scalar"] += 1
    assert _scalar_entry(()) == 0 and min(counts.values()) >= 100, counts


def test_mat_sum_refuses_mismatched_shapes():
    pairs = [
        (Mat.zero(2, 3), Mat.zero(3, 2)),
        (Mat.zero(2, 2), Mat.zero(2, 3)),
        (Mat.zero(0, 2), Mat.zero(2, 0)),
        (Mat.zero(0, 1), Mat.zero(0, 2)),
        (Mat.identity(1), Mat.zero(0, 0)),
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="shape mismatch"):
                x + y
            with pytest.raises(ValueError, match="shape mismatch"):
                x - y


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
    for (a, k), (b, m) in zip(_kernel_cases(44, 150), _kernel_cases(45, 150)):
        b = [row[:m] for row in b[:k]] + [(Fraction(0),) * m] * (k - len(b))
        product = sympy.Matrix(len(a), k, [rat(e) for row in a for e in row]) * sympy.Matrix(
            k, m, [rat(e) for row in b for e in row])
        expected = tuple(tuple(frac_of(product[i, j]) for j in range(m)) for i in range(len(a)))
        assert Mat(a, cols=k).matmul(Mat(b, cols=m)).data == expected


def test_frac_refuses_bool():
    for flag in (True, False):
        with pytest.raises(TypeError):
            frac(flag)
    assert frac(1) == 1 and frac("-3/6") == Fraction(-1, 2)


def test_shape_refusals_name_the_fault():
    with pytest.raises(ValueError, match="ragged matrix data"):
        Mat([[1, 2], [3]])
    with pytest.raises(ValueError, match="empty matrix needs an explicit column count"):
        Mat([])
    assert Mat([], cols=2).cols == 2
    with pytest.raises(ValueError, match="vector length mismatch"):
        Mat.identity(2).apply((1, 2, 3))
    with pytest.raises(ValueError, match="inverse of a non-square matrix"):
        Mat.zero(2, 3).inverse()
    with pytest.raises(ValueError, match="characteristic polynomial of a non-square matrix"):
        charpoly(Mat.zero(3, 2))
    with pytest.raises(ValueError, match="row count mismatch in solve"):
        solve(Mat.identity(2), Mat.identity(3))
    with pytest.raises(ValueError, match="dot length mismatch"):
        dot((1, 2), (1, 2, 3))


def test_image_span_matches_sympy():
    # the canonical basis of the images, against sympy's RREF of the
    # images as rows: (X S^T)^T for the source vectors S, no Mat.apply
    sympy = pytest.importorskip("sympy")

    def sym(rows, cols):
        return sympy.Matrix(len(rows), cols, [sympy.Rational(e.numerator, e.denominator)
                                              for row in rows for e in row])

    nonzero = 0
    for (a, k), (b, m) in zip(_kernel_cases(46, 200), _kernel_cases(47, 200)):
        x = Mat(a, cols=k)
        # source vectors of length k: b's rows cut or padded with zeros
        source = tuple(tuple(row[:k]) + (Fraction(0),) * (k - m) for row in b)
        expected = ()
        if a and source:
            reduced, pivots = (sym(a, k) * sym(source, k).T).T.rref()
            expected = tuple(
                tuple(Fraction(int(e.p), int(e.q)) for e in reduced.row(i)) for i in range(len(pivots))
            )
        assert image_span(x, source) == expected, (a, source)
        nonzero += bool(expected)
    assert nonzero > 50
    with pytest.raises(ValueError, match="vector length mismatch"):
        image_span(Mat.identity(2), ((1, 2, 3),))


def test_mat_repr_shows_entries_or_an_empty_shape():
    assert repr(Mat([[1, Fraction(-1, 2)], [0, "3/9"]])) == "Mat[1 -1/2; 0 1/3]"
    assert repr(Mat([[Fraction(0)]])) == "Mat[0]"
    assert repr(Mat.zero(0, 3)) == "Mat.zero(0, 3)"
    assert repr(Mat.zero(2, 0)) == "Mat.zero(2, 0)"
    assert repr(Mat([], cols=0)) == "Mat.zero(0, 0)"


def test_mat_is_immutable():
    m = Mat([[1, 2], [3, 4]])
    for name, value in (("num", ((0, 0), (0, 0))), ("den", 2), ("rows", 1), ("cols", 1), ("extra", 0)):
        with pytest.raises(AttributeError, match="Mat is immutable"):
            setattr(m, name, value)
    assert m == Mat([[1, 2], [3, 4]]) and (m.num, m.den, m.rows, m.cols) == (((1, 2), (3, 4)), 1, 2, 2)


def test_mat_refuses_del_and_still_works():
    m = Mat([[1, Fraction(1, 2)], [3, 4]])
    for name in ("num", "den", "rows", "cols", "extra"):
        with pytest.raises(AttributeError, match="Mat is immutable"):
            delattr(m, name)
    assert repr(m) == "Mat[1 1/2; 3 4]"
    assert m == Mat([[1, Fraction(1, 2)], [3, 4]])
    assert (m * m).data == ((Fraction(5, 2), Fraction(5, 2)), (Fraction(15), Fraction(35, 2)))


def test_mat_times_mat_is_matmul():
    rng = random.Random(17)
    for _ in range(50):
        r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)] for _ in range(r)], cols=k)
        b = Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(c)] for _ in range(k)], cols=c)
        want = tuple(
            tuple(sum((a.data[i][t] * b.data[t][j] for t in range(k)), Fraction(0)) for j in range(c))
            for i in range(r)
        )
        for got in (a * b, a.matmul(b)):
            assert (got.rows, got.cols, got.data) == (r, c, want)
    half = Mat([[1, 2]]) * "1/2"
    assert half == Mat([[Fraction(1, 2), 1]]) and half == Fraction(1, 2) * Mat([[1, 2]])


def test_matmul_refuses_mismatched_shapes():
    for a, b in ((Mat.zero(2, 3), Mat.zero(2, 3)), (Mat.zero(0, 1), Mat.zero(2, 0)),
                 (Mat.identity(2), Mat.zero(3, 1))):
        message = f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        with pytest.raises(ValueError, match=message):
            a.matmul(b)
        with pytest.raises(ValueError, match=message):
            a * b
