import itertools
from fractions import Fraction

import pytest

from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver, check_symmetric
from quiverlab.surgery import (
    build_add,
    build_aux,
    build_rem,
    crawley_boevey,
    default_delta,
    dim_quiver_variety,
    dim_universal_nakajima,
    half_quiver,
    hgamma_data,
    lift_stability,
)


def jordan(v=2, d=1, theta=1):
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    split = ArrowSplit((), ("eps",))
    dims = DimData({"0": v}, {"0": d}, {"0": Fraction(theta)})
    return q, split, dims


def a2sym(v=(1, 1), d=(1, 0), theta=(1, 1)):
    q = Quiver(("0", "1"), (Arrow("a", "0", "1"), Arrow("a*", "1", "0")))
    split = ArrowSplit((("a", "a*"),), ())
    dims = DimData(
        {"0": v[0], "1": v[1]},
        {"0": d[0], "1": d[1]},
        {"0": Fraction(theta[0]), "1": Fraction(theta[1])},
    )
    return q, split, dims


def arrowless(n_nodes=2):
    q = Quiver(tuple(str(i) for i in range(n_nodes)), ())
    return q, ArrowSplit((), ())


def test_adjacency_examples():
    q, _, _ = jordan()
    assert q.adjacency_matrix() == ((1,),)
    q2, _, _ = a2sym()
    assert q2.adjacency_matrix() == ((0, 1), (1, 0))
    q3, _ = arrowless()
    assert q3.adjacency_matrix() == ((0, 0), (0, 0))


def test_cartan_examples():
    q, _, _ = jordan()
    assert q.cartan_matrix() == ((0,),)
    q2, _, _ = a2sym()
    # hand oracle: 2*Id - Adj - Adj^T
    adj = q2.adjacency_matrix()
    expected = tuple(
        tuple(2 * (i == j) - adj[i][j] - adj[j][i] for j in range(2)) for i in range(2)
    )
    assert q2.cartan_matrix() == expected == ((2, -2), (-2, 2))
    q3, _ = arrowless()
    assert q3.cartan_matrix() == ((2, 0), (0, 2))


def test_cartan_always_symmetric_adjacency_decides():
    # 2*Id - Adj - Adj^T is symmetric for every quiver; quiver symmetry is
    # a statement about the adjacency matrix alone
    asym = Quiver(("0", "1"), (Arrow("a", "0", "1"),))
    c = asym.cartan_matrix()
    assert c == tuple(zip(*c))
    assert not asym.is_symmetric()
    ok, split = check_symmetric(asym)
    assert not ok and split is None
    for q in (jordan()[0], a2sym()[0]):
        c = q.cartan_matrix()
        assert c == tuple(zip(*c)) and q.is_symmetric()


def test_check_symmetric_pairing():
    q, _, _ = a2sym()
    ok, split = check_symmetric(q)
    assert ok and split.pairs == (("a", "a*"),) and split.loops == ()
    qj, _, _ = jordan()
    ok, split = check_symmetric(qj)
    assert ok and split.pairs == () and split.loops == ("eps",)


def test_check_symmetric_two_loops_stay_loops():
    q = Quiver(("0",), (Arrow("e1", "0", "0"), Arrow("e2", "0", "0")))
    ok, split = check_symmetric(q)
    assert ok and set(split.loops) == {"e1", "e2"} and split.pairs == ()


def test_build_add():
    q, split, _ = jordan()
    aq, asplit = build_add(q, split)
    assert set(asplit.loops) == {"eps", "loop:0"}
    q2, split2, _ = a2sym()
    aq2, asplit2 = build_add(q2, split2)
    assert {a.id for a in aq2.arrows} == {"a", "a*", "loop:0", "loop:1"}
    assert set(asplit2.loops) == {"loop:0", "loop:1"}
    q3, split3 = arrowless(1)
    aq3, asplit3 = build_add(q3, split3)
    assert len(aq3.arrows) == 1 and asplit3.loops == ("loop:0",)


def test_build_rem():
    q, split, _ = jordan()
    rq, rsplit = build_rem(q, split)
    assert rq.arrows == () and rsplit.loops == ()
    q2, split2, _ = a2sym()
    rq2, _ = build_rem(q2, split2)
    assert {a.id for a in rq2.arrows} == {"a", "a*"}
    aq, asplit = build_add(q, split)
    rq3, _ = build_rem(aq, asplit)
    assert rq3.arrows == ()


def test_rem_of_add_equals_rem():
    for q, split in [jordan()[:2], a2sym()[:2]]:
        aq, asplit = build_add(q, split)
        left = {a.id for a in build_rem(aq, asplit)[0].arrows}
        right = {a.id for a in build_rem(q, split)[0].arrows}
        assert left == right


def test_build_aux_jordan2():
    q, split, dims = jordan(2, 1)
    aux = build_aux(q, split, dims)
    assert aux.quiver.nodes == ("0", ("eps", 1), ("loop:0", 1))
    assert aux.v == {"0": 2, ("eps", 1): 1, ("loop:0", 1): 1}
    assert aux.d == {"0": 1, ("eps", 1): 0, ("loop:0", 1): 0}
    assert aux.new_node_total == 2
    assert aux.leg_index == {"eps": (("eps", 1),), "loop:0": (("loop:0", 1),)}


def test_build_aux_empty_legs():
    q, split, dims = jordan(1, 1)
    aux = build_aux(q, split, dims)
    assert aux.quiver.nodes == ("0",)
    assert aux.quiver.arrows == ()
    assert aux.new_node_total == 0
    assert aux.leg_index == {"eps": (), "loop:0": ()}


def test_build_aux_a2sym():
    q, split, dims = a2sym()
    aux = build_aux(q, split, dims)
    # both legs empty at v=1: doubled A2 with framing (1, 0)
    assert {a.id for a in aux.quiver.arrows} == {"a", "a*"}
    assert aux.new_node_total == 0
    assert aux.d["0"] == 1 and aux.d["1"] == 0


def test_build_aux_rejects_zero_dimension():
    # the legs and the leg deformation base refuse it in the same words
    q, split, dims = jordan(0, 1)
    for build in (build_aux, hgamma_data):
        with pytest.raises(ValueError, match="gauge dimension 0 at node '0'; drop the node"):
            build(q, split, dims)


def test_split_and_dimension_refusals_name_the_fault():
    q = Quiver(("0", "1"), (Arrow("a", "0", "1"), Arrow("b", "0", "1")))
    with pytest.raises(ValueError, match=r"pair \('a', 'b'\) is not orientation-reversed"):
        ArrowSplit((("a", "b"),), ()).validate(q)
    full = {"0": 1, "1": 1}
    for dims, need_theta, missing in (
        (DimData({"0": 1}, full), False, "missing gauge dimension at node '1'"),
        (DimData(full, {"1": 0}), False, "missing framing dimension at node '0'"),
        (DimData(full, full, {"0": 1}), True, "missing stability value at node '1'"),
    ):
        with pytest.raises(ValueError, match=missing):
            dims.validate(q, need_theta)
    DimData(full, full, {"0": 1}).validate(q)


def test_build_aux_leg_structure_v3():
    q, split, dims = jordan(3, 1)
    aux = build_aux(q, split, dims)
    # per loop: nodes at depth 1, 2 with dims 2, 1
    for loop in ("eps", "loop:0"):
        chain = aux.leg_index[loop]
        assert chain == ((loop, 1), (loop, 2))
        assert aux.v[(loop, 1)] == 2 and aux.v[(loop, 2)] == 1
        # C_2: depth-1 node (dim 2) -> original; C_1: depth-2 -> depth-1
        c2 = aux.quiver.arrow(f"{loop}:C2")
        assert c2.tail == (loop, 1) and c2.head == "0"
        c1 = aux.quiver.arrow(f"{loop}:C1")
        assert c1.tail == (loop, 2) and c1.head == (loop, 1)
    assert aux.new_node_total == 6


def test_crawley_boevey():
    q, split, dims = jordan(2, 1, 1)
    cb = crawley_boevey(q, split, dims)
    assert cb.v["inf"] == 1
    assert cb.theta["inf"] == Fraction(-2)
    # one arrow each direction for d=1
    cb_arrows = [a for a in cb.quiver.arrows if "cb:" in str(a.id)]
    assert len(cb_arrows) == 2

    q2, split2, dims2 = a2sym()
    cb2 = crawley_boevey(q2, split2, dims2)
    assert cb2.theta["inf"] == Fraction(-2)
    pair_arrows = [a for a in cb2.quiver.arrows if "cb:" in str(a.id)]
    assert len(pair_arrows) == 2  # only node 0 is framed

    q3, split3, _ = a2sym()
    dims3 = DimData({"0": 1, "1": 1}, {"0": 1, "1": 0}, {"0": 0, "1": 0})
    assert crawley_boevey(q3, split3, dims3).theta["inf"] == 0


def test_lift_stability_default_and_bound():
    q, split, dims = jordan(2, 1)
    aux = build_aux(q, split, dims)
    assert default_delta(aux) == Fraction(1, 8)
    lifted, delta = lift_stability({"0": Fraction(1)}, aux)
    assert delta == Fraction(1, 8)
    assert lifted["0"] == 1
    assert lifted[("eps", 1)] == Fraction(1, 8)
    with pytest.raises(ValueError):
        lift_stability({"0": 1}, aux, Fraction(1, 3))  # 2/3 >= 1/2
    with pytest.raises(ValueError):
        lift_stability({"0": 1}, aux, Fraction(-1))
    # 'p/q' strings are exact rationals
    lifted, delta = lift_stability({"0": "1/2"}, aux, "1/10")
    assert delta == Fraction(1, 10)
    assert lifted == {n: Fraction(1, 2) if n == "0" else Fraction(1, 10) for n in aux.quiver.nodes}
    # S = 0: delta defaults to 1, bound vacuous
    q1, split1, dims1 = jordan(1, 1)
    aux1 = build_aux(q1, split1, dims1)
    lifted1, delta1 = lift_stability({"0": Fraction(3, 7)}, aux1)
    assert delta1 == 1 and lifted1 == {"0": Fraction(3, 7)}


@pytest.mark.parametrize("xi, delta", [
    ({"0": 0.5}, Fraction(1, 10)),
    ({"0": 1}, 0.1),
    ({"0": True}, None),
    ({"0": 1}, True),
])
def test_lift_stability_refuses_a_float_or_bool(xi, delta):
    # Fraction(0.5) would give the binary value of the float; frac refuses it
    q, split, dims = jordan(2, 1)
    aux = build_aux(q, split, dims)
    with pytest.raises(TypeError, match="as an exact rational"):
        lift_stability(xi, aux, delta)


def test_lift_stability_default_always_inside_bound():
    for v in (1, 2, 3, 5):
        q, split, dims = jordan(v, 1)
        aux = build_aux(q, split, dims)
        delta = default_delta(aux)
        assert delta > 0
        assert aux.new_node_total == 0 or delta * aux.new_node_total < Fraction(1, 2)


def test_dim_quiver_variety_examples():
    q, _, dims = jordan(2, 1)
    assert dim_quiver_variety(q, dims) == 4
    q2, _, dims2 = a2sym()
    assert dim_quiver_variety(q2, dims2) == 2
    q3, split3 = arrowless(1)
    dims3 = DimData({"0": 1}, {"0": 1})
    assert dim_quiver_variety(q3, dims3) == 1


def test_dim_universal_nakajima_examples():
    q, split, dims = jordan(2, 1)
    aux = build_aux(q, split, dims)
    hq, hdims = half_quiver(aux)
    assert dim_universal_nakajima(hq, hdims) == 3

    q2, split2, dims2 = a2sym()
    aux2 = build_aux(q2, split2, dims2)
    hq2, hdims2 = half_quiver(aux2)
    assert dim_universal_nakajima(hq2, hdims2) == 2

    # leg model, n=2: one gauge node of dim 1, framing 2
    leg = Quiver(("0",), ())
    assert dim_universal_nakajima(leg, DimData({"0": 1}, {"0": 2})) == 3


def test_dimension_consistency_random_quivers():
    # dim X = dim N(aux) + dim L for every symmetric (Q, v, d)
    import itertools
    import random

    rng = random.Random(12)
    for _ in range(30):
        n_nodes = rng.randint(1, 3)
        nodes = tuple(str(i) for i in range(n_nodes))
        arrows = []
        pairs = []
        loops = []
        aid = 0
        for i, j in itertools.combinations(range(n_nodes), 2):
            for _ in range(rng.randint(0, 2)):
                arrows.append(Arrow(f"p{aid}", str(i), str(j)))
                arrows.append(Arrow(f"p{aid}*", str(j), str(i)))
                pairs.append((f"p{aid}", f"p{aid}*"))
                aid += 1
        for i in range(n_nodes):
            for _ in range(rng.randint(0, 2)):
                arrows.append(Arrow(f"l{aid}", str(i), str(i)))
                loops.append(f"l{aid}")
                aid += 1
        q = Quiver(nodes, tuple(arrows))
        split = ArrowSplit(tuple(pairs), tuple(loops))
        dims = DimData(
            {n: rng.randint(1, 3) for n in nodes}, {n: rng.randint(0, 2) for n in nodes}
        )
        aux = build_aux(q, split, dims)
        hq, hdims = half_quiver(aux)
        hg = hgamma_data(q, split, dims)
        assert dim_quiver_variety(q, dims) == dim_universal_nakajima(hq, hdims) + hg.dim_l


def test_hgamma_examples():
    q, split, dims = jordan(2, 1)
    hg = hgamma_data(q, split, dims)
    assert hg.dim_h == 4 and sorted(hg.gamma_factors) == [2, 2] and hg.dim_l == 1
    q2, split2, dims2 = a2sym()
    hg2 = hgamma_data(q2, split2, dims2)
    assert hg2.dim_h == 2 and hg2.gamma_factors == (1, 1) and hg2.dim_l == 0
    q3, split3 = arrowless(1)
    hg3 = hgamma_data(q3, split3, DimData({"0": 1}, {"0": 0}))
    assert hg3.dim_h == 1 and hg3.gamma_factors == (1,) and hg3.dim_l == 0


def generic_locus_hyperplanes(q: Quiver, v) -> tuple[tuple[int, ...], ...]:
    """All nonzero integer normals u with 0 <= u_i <= v_i, in node order."""
    return tuple(u for u in itertools.product(*(range(v[n] + 1) for n in q.nodes)) if any(u))


def is_generic_level(lam, normals) -> bool:
    """True when the level avoids every hyperplane sum(u_i * lam_i) = 0."""
    lam = [Fraction(x) for x in lam]
    for u in normals:
        if sum(x * ui for x, ui in zip(lam, u)) == 0:
            return False
    return True


def test_generic_locus_hyperplanes():
    q, _, _ = jordan(2, 1)
    normals = generic_locus_hyperplanes(q, {"0": 2})
    assert set(normals) == {(1,), (2,)}
    assert is_generic_level((3,), normals)
    assert not is_generic_level((0,), normals)

    q2, _, _ = a2sym()
    normals2 = generic_locus_hyperplanes(q2, {"0": 1, "1": 1})
    assert set(normals2) == {(1, 0), (0, 1), (1, 1)}
    assert not is_generic_level((1, -1), normals2)

    q3, _ = arrowless(2)
    assert generic_locus_hyperplanes(q3, {"0": 0, "1": 0}) == ()
    assert is_generic_level((5, -5), ())


def test_fiber_dimension_nonnegative_on_corpus():
    from quiverlab.corpus import corpus

    for e in corpus().values():
        hg = hgamma_data(e.quiver, e.split, e.dims)
        assert dim_quiver_variety(e.quiver, e.dims) - hg.dim_h >= 0


def test_iterated_surgery_gets_fresh_names():
    # the auxiliary quiver is itself symmetric; running the surgery on it
    # again must not collide with first-generation leg nodes
    q, split, dims = jordan(2, 1)
    aux = build_aux(q, split, dims)
    dims2 = DimData(aux.v, aux.d)
    aux2 = build_aux(aux.quiver, aux.split, dims2)
    assert len(set(aux2.quiver.nodes)) == len(aux2.quiver.nodes)
    # the second-generation loop at node "0" was renamed away from "loop:0"
    assert any(l.startswith("loop:0'") for l in aux2.add_split.loops)
    hg = hgamma_data(aux.quiver, aux.split, dims2)
    hq, hd = half_quiver(aux2)
    assert dim_quiver_variety(aux.quiver, dims2) == dim_universal_nakajima(hq, hd) + hg.dim_l


def test_unknown_arrow_ids_are_key_errors():
    q = Quiver(("0", "1"), (Arrow("a", "0", "1"), Arrow("a*", "1", "0"), Arrow("eps", "0", "0")))
    split = ArrowSplit((("a", "a*"),), ("eps",))
    assert q.arrow("eps") == Arrow("eps", "0", "0")
    assert (split.star("a"), split.star("a*")) == ("a*", "a")
    for aid in ("b", "eps", ("a",), None):
        if aid != "eps":
            with pytest.raises(KeyError) as err:
                q.arrow(aid)
            assert err.value.args == (aid,)
        # a loop has no star, and neither has an id outside the pairs
        with pytest.raises(KeyError) as err:
            split.star(aid)
        assert err.value.args == (aid,)
