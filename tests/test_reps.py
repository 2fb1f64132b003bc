import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction

import pytest

from quiverlab.exactlinalg import Mat, charpoly, kernel_basis, rank, reduce_span, solve
from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver
from quiverlab.reps import (
    Representation,
    check_compare_moment,
    flag_check,
    gauge_transform,
    leg_chains,
    leg_moment_scalars,
    leg_stable,
    moment_map,
    moment_resolved,
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
from quiverlab.exactlinalg import frac
from test_quiver import generic_locus_hyperplanes, is_generic_level


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
    assert all(m == Mat.zero(m.rows, m.cols) for m in mu.values())


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
    args = (2, [Mat([[1], [0]])], [Mat([[3, 5]])], Fraction(1))
    assert flag_check(*args).ok
    ref = _flag_check_reference(*args)
    assert ref.ok
    assert ref.lambdas == (Fraction(3),)
    assert ref.scalars == (Fraction(1), Fraction(4))
    # V_1 = span(e_1)
    assert ref.flags[1] == ((Fraction(1), Fraction(0)),)


def test_flag_nilpotent_case():
    # D*C = 0, t = 0: nilpotent loop value with scalars (0, 0)
    args = (2, [Mat([[1], [0]])], [Mat([[0, 9]])], Fraction(0))
    assert flag_check(*args).ok
    ref = _flag_check_reference(*args)
    assert ref.ok and ref.scalars == (Fraction(0), Fraction(0))
    assert ref.lambdas == (Fraction(0),)


def test_flag_trivial_leg():
    args = (1, [], [], Fraction(9))
    assert flag_check(*args).ok
    ref = _flag_check_reference(*args)
    assert ref.ok and ref.scalars == (Fraction(9),) and ref.lambdas == ()


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
        if _fraction_scalar(block) is None:
            break
    assert not flag_check(3, [c1, c2], [d1, d2], Fraction(0)).ok
    assert 1 in _flag_check_reference(3, [c1, c2], [d1, d2], Fraction(0)).nonscalar_depths


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
        args = (aux.v[aux.loop_node(loop)], *leg_chains(aux, rep, loop), t[loop])
        assert flag_check(*args).ok
        assert _flag_check_reference(*args).lambdas == tuple(-s for s in scal)


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


# Generic-locus membership for deformation-base points. No command needs
# it; it lives here with the checks of its definition.

def leg_coordinates(r_tuple) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(t, lambdas) from the eigenvalue tuple of one leg: r_i = t + sum(lambda_j, j<i)."""
    rs = [frac(x) for x in r_tuple]
    t = rs[0]
    lambdas = tuple(rs[i + 1] - rs[i] for i in range(len(rs) - 1))
    return t, lambdas


def in_H_circ(aux, h: dict) -> bool:
    """Membership of a per-leg eigenvalue point in the generic locus.

    For every tuple of per-leg coordinate permutations, the induced level
    vector over the auxiliary nodes (base node: minus the sum of incoming
    leg offsets; leg node at depth j: minus lambda_j) must avoid every
    hyperplane indexed by the dimension-bounded box.
    """
    loops = list(aux.add_split.loops)
    for l in loops:
        expected = aux.v[aux.loop_node(l)]
        if len(h[l]) != expected:
            raise ValueError(f"leg {l!r} expects {expected} coordinates")
    normals = generic_locus_hyperplanes(aux.quiver, aux.v)
    for combo in itertools.product(*(itertools.permutations(h[l]) for l in loops)):
        t_of = {}
        lam_of = {}
        for l, rs in zip(loops, combo):
            t_of[l], lam_of[l] = leg_coordinates(rs)
        level = []
        for node in aux.quiver.nodes:
            if node in aux.base_quiver.nodes:
                level.append(
                    -sum(
                        (t_of[l] for l in loops if aux.loop_node(l) == node),
                        Fraction(0),
                    )
                )
            else:
                loop_id, depth = node
                level.append(-lam_of[loop_id][depth - 1])
        if not is_generic_level(level, normals):
            return False
    return True


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
    args = (2, [Mat([[1], [0]])], [Mat([[3, 5]])], Fraction(1))
    assert not flag_check(*args).ok
    ref = _flag_check_reference(*args)
    assert not ref.ok and ref.preserved
    assert ref.violations == ((1, (Fraction(1), Fraction(0))),)


def _in_rref_span_reference(vec, basis) -> bool:
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    coeffs = [vec[p] for p in pivots]
    return all(
        vec[j] == sum(c * row[j] for c, row in zip(coeffs, basis))
        for j in range(len(vec))
        if j not in pivots
    )


# the flag check's full account: the RREF flag bases, whether X preserves
# every V_k, the quotient scalars, the deformation parameters, the depths
# whose moment value is not scalar and each (k, flag vector) that X - e_k
# sends outside V_{k+1}
FlagReference = namedtuple(
    "FlagReference", "ok flags preserved scalars lambdas nonscalar_depths violations"
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
        return FlagReference(False, (), False, (), tuple(lambdas), tuple(nonscalar), ())
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
    return FlagReference(
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
        assert got.ok == expected.ok, (trial, expected)
        if expected.nonscalar_depths:
            outcomes["nonscalar"] += 1
        elif not expected.preserved:
            outcomes["not preserved"] += 1
        else:
            outcomes["violations" if expected.violations else "ok"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_flag_verdict_does_not_depend_on_t():
    # X - e_k = C D + (s_1 + ... + s_k) id, so t cancels: on each seeded
    # leg, plain or with noise on the top D map, the verdict is the same at
    # every exact t and agrees with the reference at each
    rng = random.Random(67)
    ts = (0, 1, -7, Fraction(-7, 3), "5/2", Fraction(10**9, 7))
    verdicts = Counter()
    for trial in range(120):
        n = 2 + trial % 4
        cs, ds = random_scalar_moment_leg(rng, n)
        if trial % 2:
            noise = Mat([[rng.randint(-2, 2) * rng.randint(0, 1) for _ in range(n)]
                         for _ in range(n - 1)])
            ds = ds[:-1] + [ds[-1] + noise]
        got = {flag_check(n, cs, ds, t).ok for t in ts}
        assert len(got) == 1, trial
        assert got == {_flag_check_reference(n, cs, ds, t).ok for t in ts}, trial
        verdicts[got.pop()] += 1
    assert min(verdicts[True], verdicts[False]) >= 20, verdicts


def test_flag_check_refuses_an_inexact_t():
    # t takes no part in the verdict, but is still read as an exact rational
    cs, ds = random_scalar_moment_leg(random.Random(5), 3)
    for t in (1.0, 0.5, True, False, None, 1j):
        with pytest.raises(TypeError, match="as an exact rational"):
            flag_check(3, cs, ds, t)
    with pytest.raises(ValueError, match="zero denominator"):
        flag_check(3, cs, ds, "1/0")
    assert flag_check(3, cs, ds, "1/3").ok


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


# ---------------------------------------------------------------------------
# The integer moment blocks against term-by-term Mat arithmetic

def _mat_moment_map(q, split, dims, rep):
    # moment_map as it was: one normalised Mat per product, sum and difference
    mu = {n: rep.a[n].matmul(rep.b[n]) for n in q.nodes}
    for a_id, astar_id in split.pairs:
        ar = q.arrow(a_id)
        mu[ar.head] = mu[ar.head] + rep.x[a_id].matmul(rep.x[astar_id])
        mu[ar.tail] = mu[ar.tail] - rep.x[astar_id].matmul(rep.x[a_id])
    for l_id in split.loops:
        node = q.arrow(l_id).head
        mu[node] = mu[node] + rep.x[l_id]
    return mu


def _mat_moment_resolved(aux, rep):
    # moment_resolved as it was: the whole auxiliary moment, leg nodes dropped
    mu = _mat_moment_map(aux.quiver, aux.split, DimData(aux.v, aux.d), rep)
    return {n: mu[n] for n in aux.base_quiver.nodes}


def _fraction_scalar(block):
    # s when the Mat block is s times the identity, read off its Fraction
    # entries, else None
    rows = block.data
    s = rows[0][0] if rows else Fraction(0)
    same = all(x == (s if i == j else 0) for i, row in enumerate(rows) for j, x in enumerate(row))
    return s if same else None


def _mat_leg_depth_scalars(n, cs, ds):
    # _leg_depth_scalars as it was: the block as a normalised Mat per depth
    out = []
    for depth in range(1, n):
        m = n - depth
        block = -ds[m - 1].matmul(cs[m - 1])
        if m >= 2:
            block = block + cs[m - 2].matmul(ds[m - 2])
        out.append(_fraction_scalar(block))
    return out


def _blocks_key(mu):
    return [(n, m.num, m.den, m.rows, m.cols) for n, m in mu.items()]


def _moment_entries():
    from quiverlab.surgery import build_add

    entries = [_jordan(v) for v in range(1, 7)]
    entries += [corpus()[name] for name in ("loop2", "a2sym", "framed2")]
    for e in entries:
        add_q, add_split = build_add(e.quiver, e.split)
        yield e, (add_q, add_split), build_aux(e.quiver, e.split, e.dims)


def test_moment_blocks_match_mat_reference():
    # the base, loop-augmented and auxiliary quiver of every entry; the leg
    # nodes and a2sym's node 1 have d = 0, so their framing term is an
    # empty product
    rng = random.Random(71)
    zero_framing = 0
    for e, (add_q, add_split), aux in _moment_entries():
        aux_dims = DimData(aux.v, aux.d)
        zero_framing += sum(1 for n in aux.quiver.nodes if aux.d[n] == 0)
        for trial in range(12):
            for q, split, dims in (
                (e.quiver, e.split, e.dims),
                (add_q, add_split, e.dims),
                (aux.quiver, aux.split, aux_dims),
            ):
                rep = random_representation(rng, q, dims)
                if trial == 0:
                    rep = zero_representation(q, dims)
                got = moment_map(q, split, dims, rep)
                assert list(got) == list(q.nodes)
                assert _blocks_key(got) == _blocks_key(_mat_moment_map(q, split, dims, rep))
            rep = random_representation(rng, aux.quiver, aux_dims)
            got = moment_resolved(aux, rep)
            assert _blocks_key(got) == _blocks_key(_mat_moment_resolved(aux, rep)), e.name
    assert zero_framing >= 20


def test_moment_resolved_refuses_a_misshaped_leg_arrow():
    # no base node's moment block reads this arrow, so only the shape check
    # of each moment entry point can see it
    e = _jordan(3)
    aux = build_aux(e.quiver, e.split, e.dims)
    dims = DimData(aux.v, aux.d)
    rep = random_representation(random.Random(72), aux.quiver, dims)
    rep.x["eps:C1"] = Mat.zero(1, 1)  # a leg arrow away from the base node
    t = {loop: 0 for loop in aux.add_split.loops}
    for call in (
        lambda: moment_resolved(aux, rep),
        lambda: moment_map(aux.quiver, aux.split, dims, rep),
        lambda: p_map(aux, rep, t),
        lambda: check_compare_moment(aux, rep, t),
    ):
        with pytest.raises(ValueError, match="eps:C1"):
            call()


def test_leg_depth_scalars_match_mat_reference():
    import quiverlab.reps as reps

    rng = random.Random(73)
    nonscalar = 0
    for n in range(1, 7):
        for _ in range(40):
            cs, ds = random_scalar_moment_leg(rng, n)
            got = reps._leg_depth_scalars(n, cs, ds)
            assert got == _mat_leg_depth_scalars(n, cs, ds)
            assert None not in got and len(got) == n - 1
            assert all(type(s) is Fraction for s in got)
            if n == 1:
                continue
            # one D perturbed in one entry: the depths it enters stop being
            # scalar unless the change happens to cancel
            m = rng.randint(1, n - 1)
            d = ds[m - 1]
            rows = [list(row) for row in d.data]
            rows[rng.randrange(m)][rng.randrange(m + 1)] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
            bent = ds[: m - 1] + [Mat(rows)] + ds[m:]
            got = reps._leg_depth_scalars(n, cs, bent)
            assert got == _mat_leg_depth_scalars(n, cs, bent)
            nonscalar += None in got
    assert nonscalar >= 150


# ---------------------------------------------------------------------------
# Refusals: leg-stability read off the flag bases, and chain shapes

def _with_kernel(rng, c):
    # c with one column replaced by a multiple of another (or zero)
    rows = [list(row) for row in c.data]
    j = rng.randrange(c.cols)
    factor = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    for row in rows:
        row[j] = factor * row[j - 1] if c.cols > 1 else Fraction(0)
    return Mat(rows)


def test_flag_check_refuses_a_kernel_in_any_single_C():
    rng = random.Random(74)
    for n in (3, 4, 5):
        for k in range(1, n):  # C_1, the middle C's and C_{n-1}
            for _ in range(5):
                cs, ds = random_scalar_moment_leg(rng, n)
                t = random_fraction(rng)
                assert flag_check(n, cs, ds, t).ok
                bad = cs[: k - 1] + [_with_kernel(rng, cs[k - 1])] + cs[k:]
                assert [rank(c) < c.cols for c in bad] == [j == k for j in range(1, n)]
                with pytest.raises(ValueError, match="leg is not leg-stable: some C has a kernel"):
                    flag_check(n, bad, ds, t)


def test_flag_check_refuses_misshaped_chains():
    rng = random.Random(75)
    cs, ds = random_scalar_moment_leg(rng, 4)
    t = Fraction(1, 2)
    bad_chains = [
        (cs[:2] + [cs[2].transpose()], ds),            # C_3 as 3x4
        (cs, [ds[0].transpose()] + ds[1:]),            # D_1 as 2x1
        (cs, ds[:1] + [Mat.zero(2, 4)] + ds[2:]),      # D_2 one column too many
        ([Mat.zero(3, 2)] + cs[1:], ds),               # C_1 with C_2's shape
        (cs[:2], ds),                                  # one C short
    ]
    for bad_cs, bad_ds in bad_chains:
        with pytest.raises(ValueError):
            flag_check(4, bad_cs, bad_ds, t)
    # a 2x2 C_1 and D_1 on n = 2 make every product square
    with pytest.raises(ValueError, match="C_1 must be 2x1"):
        flag_check(2, [Mat.identity(2)], [Mat.identity(2)], t)


def test_transfer_refuses_a_kernel_in_any_single_C():
    from quiverlab.stability import check_stability_transfer

    rng = random.Random(76)
    for v in (3, 4):
        e = _jordan(v)
        aux = build_aux(e.quiver, e.split, e.dims)
        xi = {"0": Fraction(1)}
        for k in range(1, v):
            rep, t = random_leg_stable_aux(rng, aux)
            check_stability_transfer(aux, rep, t, xi)
            arrow = f"eps:C{k}"
            rep.x[arrow] = _with_kernel(rng, rep.x[arrow])
            assert not leg_stable(aux, rep)
            with pytest.raises(ValueError, match="not leg-stable"):
                check_stability_transfer(aux, rep, t, xi)


def test_random_injective_refuses_a_smaller_target():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="no injective map into a smaller space"):
        random_injective(rng, 2, 3)
    assert rank(random_injective(rng, 3, 3)) == 3
