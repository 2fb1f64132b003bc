import random
from fractions import Fraction

import pytest

from quiverlab.exactlinalg import Mat, charpoly, kernel_basis, reduce_span, solve
from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver
from quiverlab.reps import (
    Representation,
    check_compare_moment,
    flag_check,
    flag_check_leg,
    gauge_transform,
    in_H_circ,
    leg_coordinates,
    leg_moment_scalars,
    leg_stable,
    moment_map,
    p_map,
    tau_charpoly,
    zero_representation,
)
from quiverlab import sampling
from quiverlab.sampling import (
    random_fraction,
    random_gauge,
    random_injective,
    random_leg_stable_aux,
    random_matrix,
    random_representation,
    random_scalar_moment_leg,
)
from quiverlab.surgery import build_aux
from quiverlab.corpus import _jordan, corpus


@pytest.fixture
def jordan2():
    e = corpus()["jordan2"]
    return e.quiver, e.split, e.dims


@pytest.fixture
def a2():
    e = corpus()["a2sym"]
    return e.quiver, e.split, e.dims


def test_moment_scalar_example(a2):
    q, split, dims = a2
    rep = Representation(
        {"a": Mat([[2]]), "a*": Mat([[3]])},
        {"0": Mat([[1]]), "1": Mat.zero(1, 0)},
        {"0": Mat([[6]]), "1": Mat.zero(0, 1)},
    )
    mu = moment_map(q, split, dims, rep)
    assert mu["0"] == Mat([[0]])  # -3*2 + 1*6
    assert mu["1"] == Mat([[6]])  # 2*3


def test_moment_zero_rep(a2):
    q, split, dims = a2
    mu = moment_map(q, split, dims, zero_representation(q, dims))
    assert all(m.is_zero() for m in mu.values())


def test_moment_loop_linear():
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    split = ArrowSplit((), ("eps",))
    dims = DimData({"0": 1}, {"0": 0})
    rep = Representation(
        {"eps": Mat([[5]])}, {"0": Mat.zero(1, 0)}, {"0": Mat.zero(0, 1)}
    )
    assert moment_map(q, split, dims, rep)["0"] == Mat([[5]])


def test_moment_equivariance():
    rng = random.Random(31)
    for name in ("jordan2", "a2sym", "loop2"):
        e = corpus()[name]
        for _ in range(10):
            rep = random_representation(rng, e.quiver, e.dims)
            g = random_gauge(rng, e.quiver, e.dims)
            mu = moment_map(e.quiver, e.split, e.dims, rep)
            mu_g = moment_map(
                e.quiver, e.split, e.dims, gauge_transform(e.quiver, e.dims, rep, g)
            )
            for n in e.quiver.nodes:
                assert mu_g[n] == g[n].matmul(mu[n]).matmul(g[n].inverse())


def test_p_map_hand_example(jordan2):
    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    rep, t = random_leg_stable_aux(random.Random(0), aux)
    # overwrite one leg with the hand example
    rep.x["eps:C1"] = Mat([[1], [0]])
    rep.x["eps:D1"] = Mat([[3, 5]])
    t = dict(t)
    t["eps"] = Fraction(1)
    img = p_map(aux, rep, t)
    assert img.x["eps"] == Mat([[4, 5], [0, 1]])


def test_p_map_zero_chains_gives_scalar(jordan2):
    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    rep = zero_representation(aux.quiver, DimData(aux.v, aux.d))
    img = p_map(aux, rep, {"eps": Fraction(7), "loop:0": Fraction(0)})
    assert img.x["eps"] == 7 * Mat.identity(2)


def test_p_map_empty_leg():
    e = corpus()["a2sym"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rep = zero_representation(aux.quiver, DimData(aux.v, aux.d))
    img = p_map(aux, rep, {"loop:0": Fraction(-2), "loop:1": Fraction(4)})
    assert img.x["loop:0"] == Mat([[-2]])
    assert img.x["loop:1"] == Mat([[4]])


def test_compare_moment_random_and_zero(jordan2):
    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    rng = random.Random(5)
    for _ in range(50):
        rep, t = random_leg_stable_aux(rng, aux)
        assert check_compare_moment(aux, rep, t)
    zrep = zero_representation(aux.quiver, DimData(aux.v, aux.d))
    assert check_compare_moment(aux, zrep, {"eps": 0, "loop:0": 0})


def test_compare_moment_negative_control(jordan2):
    # dropping the t*id term must break the identity on generic input
    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    rng = random.Random(6)
    rep, t = random_leg_stable_aux(rng, aux)
    t = {k: v + 1 for k, v in t.items()}  # corrupt the offsets after assembly
    img = p_map(aux, rep, {k: v - 1 for k, v in t.items()})
    dims_add = DimData(
        {n: aux.v[n] for n in q.nodes}, {n: aux.d[n] for n in q.nodes}
    )
    mu_add = moment_map(aux.add_quiver, aux.add_split, dims_add, img)
    from quiverlab.reps import moment_resolved

    mu_res = moment_resolved(aux, rep)
    t_sum = sum(t.values())
    assert mu_add["0"] != mu_res["0"] + t_sum * Mat.identity(2)


def test_leg_stable():
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rep, t = random_leg_stable_aux(random.Random(1), aux)
    assert leg_stable(aux, rep)
    rep.x["eps:C1"] = Mat([[0], [0]])
    assert not leg_stable(aux, rep)
    # empty legs are vacuously leg-stable
    e2 = corpus()["a2sym"]
    aux2 = build_aux(e2.quiver, e2.split, e2.dims)
    zrep = zero_representation(aux2.quiver, DimData(aux2.v, aux2.d))
    assert leg_stable(aux2, zrep)


def test_flag_hand_example():
    rpt = flag_check(2, [Mat([[1], [0]])], [Mat([[3, 5]])], Fraction(1))
    assert rpt.ok
    assert rpt.lambdas == (Fraction(3),)
    assert rpt.scalars == (Fraction(1), Fraction(4))
    # V_1 = span(e_1)
    assert rpt.flags[1] == ((Fraction(1), Fraction(0)),)


def test_flag_nilpotent_case():
    # D*C = 0, t = 0: nilpotent loop value with scalars (0, 0)
    rpt = flag_check(2, [Mat([[1], [0]])], [Mat([[0, 9]])], Fraction(0))
    assert rpt.ok and rpt.scalars == (Fraction(0), Fraction(0))
    assert rpt.lambdas == (Fraction(0),)


def test_flag_trivial_leg():
    rpt = flag_check(1, [], [], Fraction(9))
    assert rpt.ok and rpt.scalars == (Fraction(9),) and rpt.lambdas == ()


def test_flag_rejects_non_leg_stable():
    with pytest.raises(ValueError):
        flag_check(2, [Mat([[0], [0]])], [Mat([[3, 5]])], Fraction(1))


def test_flag_reports_nonscalar_moment():
    # n=3 leg with random unconstrained chains: moment at depth 1 is 2x2
    rng = random.Random(3)
    while True:
        c2, c1 = Mat([[1, 0], [0, 1], [0, 0]]), Mat([[1], [0]])
        d2 = Mat([[rng.randint(1, 5) for _ in range(3)] for _ in range(2)])
        d1 = Mat([[rng.randint(1, 5), rng.randint(1, 5)]])
        block = c1.matmul(d1) - d2.matmul(c2)
        if block.scaled_identity_value() is None:
            break
    rpt = flag_check(3, [c1, c2], [d1, d2], Fraction(0))
    assert not rpt.ok and 1 in rpt.nonscalar_depths


def test_flag_sampled(jordan2):
    # the leg sizes the moment and stability workloads draw
    rng = random.Random(9)
    for n in (2, 3, 4, 5, 6):
        for _ in range(30):
            cs, ds = random_scalar_moment_leg(rng, n)
            t = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
            rpt = flag_check(n, cs, ds, t)
            assert rpt.ok, (n, rpt)
    for v in (2, 3, 4, 5, 6):
        e = _jordan(v)
        aux = build_aux(e.quiver, e.split, e.dims)
        for _ in range(10):
            rep, t = random_leg_stable_aux(rng, aux)
            for loop in aux.add_split.loops:
                assert leg_moment_scalars(aux, rep, loop) is not None, (v, loop)


def test_leg_moment_scalars_match_flag(jordan2):
    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    rng = random.Random(13)
    rep, t = random_leg_stable_aux(rng, aux)
    for loop in ("eps", "loop:0"):
        scal = leg_moment_scalars(aux, rep, loop)
        assert scal is not None
        rpt = flag_check_leg(aux, rep, loop, t[loop])
        assert rpt.ok
        assert rpt.lambdas == tuple(-s for s in scal)


def test_tau_hand_example(jordan2):
    q, split, dims = jordan2
    rep = Representation(
        {"eps": Mat([[4, 5], [0, 1]])},
        {"0": Mat([[0], [0]])},
        {"0": Mat([[0, 0]])},
    )
    point = tau_charpoly(q, split, dims, rep)
    assert point.loop_polys["eps"] == (Fraction(1), Fraction(-5), Fraction(4))


def test_tau_zero_rep(a2):
    q, split, dims = a2
    point = tau_charpoly(q, split, dims, zero_representation(q, dims))
    for poly in list(point.loop_polys.values()) + list(point.node_polys.values()):
        assert poly[0] == 1 and all(c == 0 for c in poly[1:])


def test_tau_gauge_invariance():
    rng = random.Random(17)
    for name in ("jordan2", "a2sym", "loop2"):
        e = corpus()[name]
        for _ in range(5):
            rep = random_representation(rng, e.quiver, e.dims)
            base = tau_charpoly(e.quiver, e.split, e.dims, rep)
            for _ in range(10):
                g = random_gauge(rng, e.quiver, e.dims)
                moved = gauge_transform(e.quiver, e.dims, rep, g)
                assert tau_charpoly(e.quiver, e.split, e.dims, moved) == base


def test_leg_coordinates_roundtrip():
    t, lam = leg_coordinates((1, 2, 5))
    assert t == 1 and lam == (Fraction(1), Fraction(3))
    # r_i = t + sum of lambdas below
    assert (t, t + lam[0], t + lam[0] + lam[1]) == (1, 2, 5)


def test_in_H_circ(jordan2):
    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    assert in_H_circ(aux, {"eps": (1, 2), "loop:0": (4, 8)})
    assert not in_H_circ(aux, {"eps": (0, 0), "loop:0": (0, 0)})
    # equal coordinates on one leg sit on a box hyperplane
    assert not in_H_circ(aux, {"eps": (1, 1), "loop:0": (4, 8)})


def test_in_H_circ_empty_legs():
    e = corpus()["a2sym"]
    aux = build_aux(e.quiver, e.split, e.dims)
    # legs have one coordinate each; the induced level at the nodes is -t
    assert in_H_circ(aux, {"loop:0": (1,), "loop:1": (2,)})
    assert not in_H_circ(aux, {"loop:0": (0,), "loop:1": (2,)})


def test_in_H_circ_three_step_leg():
    e = corpus()["jordan3"]
    aux = build_aux(e.quiver, e.split, e.dims)
    # frozen generic point: survives every coordinate permutation against
    # the dimension-bounded hyperplane box
    generic = {
        "eps": (Fraction(6312, 7), Fraction(6891), Fraction(4243, 5)),
        "loop:0": (Fraction(3981, 2), Fraction(2485, 2), Fraction(5867, 5)),
    }
    assert in_H_circ(aux, generic)
    # a repeated eigenvalue forces a vanishing leg offset
    repeated = dict(generic)
    repeated["eps"] = (Fraction(1), Fraction(1), Fraction(41))
    assert not in_H_circ(aux, repeated)
    # small integers collide with a box normal under some permutation
    assert not in_H_circ(aux, {"eps": (1, 9, 41), "loop:0": (Fraction(1, 2), 17, 83)})


def test_compare_moment_false_under_perturbed_t(jordan2, monkeypatch):
    # the same offsets enter both sides, so they cancel for every t; the
    # identity must fail once the assembled side sees different offsets
    import quiverlab.reps as reps

    q, split, dims = jordan2
    aux = build_aux(q, split, dims)
    rng = random.Random(9)
    samples = [random_leg_stable_aux(rng, aux) for _ in range(5)]
    for rep, t in samples:
        assert check_compare_moment(aux, rep, t)
    assemble = reps.p_map
    monkeypatch.setattr(
        reps, "p_map", lambda aux, rep, t: assemble(aux, rep, {k: v + 1 for k, v in t.items()})
    )
    for rep, t in samples:
        assert check_compare_moment(aux, rep, t) is False


def test_flag_reports_violation_under_wrong_scalars(monkeypatch):
    # with each leg-depth scalar shifted by one, the induced scalar on V_1
    # no longer matches and the quotient check flags the basis vector of V_1
    import quiverlab.reps as reps

    depth_scalars = reps._leg_depth_scalars
    monkeypatch.setattr(
        reps, "_leg_depth_scalars", lambda *a: [s + 1 for s in depth_scalars(*a)]
    )
    rpt = flag_check(2, [Mat([[1], [0]])], [Mat([[3, 5]])], Fraction(1))
    assert not rpt.ok and rpt.preserved
    assert rpt.violations == ((1, (Fraction(1), Fraction(0))),)


def _in_rref_span_reference(vec, basis) -> bool:
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    coeffs = [vec[p] for p in pivots]
    return all(
        vec[j] == sum(c * row[j] for c, row in zip(coeffs, basis))
        for j in range(len(vec))
        if j not in pivots
    )


def _flag_check_reference(n, cs, ds, t):
    """The flag check on Fraction vectors: each flag vector's image under
    X, shifted by the expected scalar, tested against V_{k+1} one vector
    at a time."""
    import quiverlab.reps as reps

    t = Fraction(t)
    scalars = reps._leg_depth_scalars(n, cs, ds)
    lambdas = [None if s is None else -s for s in scalars]
    nonscalar = [depth for depth, s in enumerate(scalars, 1) if s is None]
    if nonscalar:
        return reps.FlagReport(False, (), False, (), tuple(lambdas), tuple(nonscalar))
    x = t * Mat.identity(n)
    if n >= 2:
        x = cs[-1].matmul(ds[-1]) + x
    flags = [tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))]
    comp = None
    for k in range(1, n):
        comp = cs[n - 2] if comp is None else comp.matmul(cs[n - 1 - k])
        flags.append(reduce_span([comp.col_tuple(j) for j in range(comp.cols)], n))
    preserved, violations, scalars = True, [], []
    for k in range(n):
        vk, vnext = flags[k], flags[k + 1] if k + 1 < n else ()
        expected = t + sum(lambdas[:k], Fraction(0))
        scalars.append(expected)
        for vec in vk:
            img = x.apply(vec)
            shifted = tuple(iv - expected * xv for iv, xv in zip(img, vec))
            if _in_rref_span_reference(shifted, vnext):
                continue
            if k >= 1 and not _in_rref_span_reference(img, vk):
                preserved = False
            violations.append((k, vec))
    return reps.FlagReport(
        preserved and not violations, tuple(flags), preserved, tuple(scalars),
        tuple(lambdas), (), tuple(violations),
    )


def test_flag_check_matches_fraction_reference(monkeypatch):
    # a third of the legs are plain; a third keep their chains but read
    # shifted depth scalars, which moves the expected quotient scalar above
    # level 0 as a wrong t would; a third add noise to the top D map and
    # read the unperturbed leg's scalars, so X need not preserve the flag
    import quiverlab.reps as reps

    depth_scalars = reps._leg_depth_scalars
    rng = random.Random(61)
    outcomes = {"ok": 0, "violations": 0, "not preserved": 0, "nonscalar": 0}
    for trial in range(240):
        n = 2 + trial % 4
        cs, ds = random_scalar_moment_leg(rng, n)
        t = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        scalars = depth_scalars(n, cs, ds)
        kind = trial // 4 % 3
        if kind == 1:
            scalars = [s + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in scalars]
        elif kind == 2:
            noise = Mat([[rng.randint(-2, 2) * rng.randint(0, 1) for _ in range(n)]
                         for _ in range(n - 1)])
            ds = ds[:-1] + [ds[-1] + noise]
            if trial % 5 == 0:
                scalars = None  # the perturbed leg's own, often not scalar
        if scalars is not None:
            monkeypatch.setattr(reps, "_leg_depth_scalars", lambda *a, s=scalars: list(s))
        got, expected = flag_check(n, cs, ds, t), _flag_check_reference(n, cs, ds, t)
        monkeypatch.setattr(reps, "_leg_depth_scalars", depth_scalars)
        for field in ("ok", "flags", "preserved", "scalars", "lambdas", "nonscalar_depths",
                      "violations"):
            assert getattr(got, field) == getattr(expected, field), (trial, field)
        if got.nonscalar_depths:
            outcomes["nonscalar"] += 1
        elif not got.preserved:
            outcomes["not preserved"] += 1
        else:
            outcomes["violations" if got.violations else "ok"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_random_matrix_matches_fraction_sampler():
    # the sampler as it was: one Fraction per entry, through Mat(...)
    def old_random_matrix(rng, rows, cols):
        return Mat((tuple(random_fraction(rng) for _ in range(cols)) for _ in range(rows)), cols=cols)

    for seed in range(50):
        for rows in range(5):
            for cols in range(5):
                new_rng, old_rng = random.Random(seed), random.Random(seed)
                m = random_matrix(new_rng, rows, cols)
                want = old_random_matrix(old_rng, rows, cols)
                assert (m, m.num, m.den, m.rows, m.cols) == (want, want.num, want.den, want.rows, want.cols)
                assert new_rng.getstate() == old_rng.getstate()


def _old_scalar_moment_leg(rng, n):
    # the sampler as it was: Mat arithmetic, a left inverse from
    # solve(C^T, I) and the left kernel from kernel_basis(C^T)
    cs = [random_injective(rng, k + 1, k) for k in range(1, n)]
    ds = []
    for m in range(1, n):
        c = cs[m - 1]
        rhs = -random_fraction(rng) * Mat.identity(m)
        if m >= 2:
            rhs = cs[m - 2].matmul(ds[m - 2]) + rhs
        d = rhs.matmul(solve(c.transpose(), Mat.identity(m)).transpose())
        (z,) = kernel_basis(c.transpose())
        noise = Mat([[random_fraction(rng)] for _ in range(m)], cols=1)
        ds.append(d + noise.matmul(Mat([z], cols=m + 1)))
    return cs, ds


def test_scalar_moment_leg_matches_mat_sampler(monkeypatch):
    def key(ms):
        return [(m.num, m.den, m.rows, m.cols) for m in ms]

    for seed in range(400):
        for n in range(1, 7):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            cs, ds = random_scalar_moment_leg(new_rng, n)
            old_cs, old_ds = _old_scalar_moment_leg(old_rng, n)
            assert key(cs) == key(old_cs) and key(ds) == key(old_ds), (seed, n)
            assert new_rng.getstate() == old_rng.getstate(), (seed, n)

    entries = [_jordan(v) for v in range(2, 7)] + [corpus()["loop2"]]
    auxes = [build_aux(e.quiver, e.split, e.dims) for e in entries]

    def aux_draws():
        out = []
        for aux in auxes:
            for seed in range(20):
                rng = random.Random(seed)
                out.append((random_leg_stable_aux(rng, aux), rng.getstate()))
        return out

    new = aux_draws()
    monkeypatch.setattr(sampling, "random_scalar_moment_leg", _old_scalar_moment_leg)
    assert aux_draws() == new
