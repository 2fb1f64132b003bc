import dataclasses
import random
from fractions import Fraction

import pytest

from quiverlab.exactlinalg import Mat, in_span, preimage_span, reduce_span, span_intersect
from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver
from quiverlab.reps import Representation, leg_moment_scalars, leg_stable, zero_representation
from quiverlab.sampling import random_fraction, random_leg_stable_aux, random_matrix, random_representation
from quiverlab.stability import (
    MixedSignTheta,
    check_stability_transfer,
    cogenerated_core,
    destabilizer_search,
    generated_closure,
    is_stable_signdef,
    stability_report,
    verify_witness,
)
from quiverlab.surgery import build_aux
from quiverlab.corpus import corpus


def jordan_rep(x, a, b, v=2, d=1):
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    split = ArrowSplit((), ("eps",))
    dims = DimData({"0": v}, {"0": d})
    rep = Representation({"eps": Mat(x)}, {"0": Mat(a)}, {"0": Mat(b)})
    return q, split, dims, rep


def test_generated_closure_examples():
    q, _, dims, rep = jordan_rep([[0, 0], [1, 0]], [[1], [0]], [[0, 0]])
    spans = generated_closure(q, dims, rep, {"0": [(1, 0)]})
    assert len(spans["0"]) == 2  # e1, X e1 = e2

    q2, _, dims2, rep2 = jordan_rep([[0, 0], [0, 0]], [[1], [0]], [[0, 0]])
    spans2 = generated_closure(q2, dims2, rep2, {"0": [(1, 0)]})
    assert spans2["0"] == ((Fraction(1), Fraction(0)),)

    spans3 = generated_closure(q2, dims2, rep2, {})
    assert spans3["0"] == ()


def test_generated_closure_monotone():
    rng = random.Random(20)
    e = corpus()["loop2"]
    for _ in range(20):
        rep = random_representation(rng, e.quiver, e.dims)
        small = {"0": [(1, 0)]}
        large = {"0": [(1, 0), (0, 1)]}
        s1 = generated_closure(e.quiver, e.dims, rep, small)
        s2 = generated_closure(e.quiver, e.dims, rep, large)
        for n in e.quiver.nodes:
            assert len(s1[n]) <= len(s2[n])


def test_cogenerated_core_examples():
    q, _, dims, rep = jordan_rep([[0, 1], [0, 0]], [[0], [0]], [[0, 1]])
    core = cogenerated_core(q, dims, rep)
    assert core["0"] == ((Fraction(1), Fraction(0)),)

    _, _, _, rep2 = jordan_rep([[0, 1], [0, 0]], [[0], [0]], [[1, 0]])
    core2 = cogenerated_core(q, dims, rep2)
    assert core2["0"] == ()

    _, _, _, rep3 = jordan_rep([[0, 1], [0, 0]], [[0], [0]], [[0, 0]])
    core3 = cogenerated_core(q, dims, rep3)
    assert len(core3["0"]) == 2


def _core_reference(q, dims, rep):
    """The core by preimages and intersections: start from ker B and cut
    each tail down to the preimage of its head until nothing changes."""
    spans = {n: preimage_span(rep.b[n], ()) for n in q.nodes}
    changed = True
    while changed:
        changed = False
        for ar in q.arrows:
            pre = preimage_span(rep.x[ar.id], spans[ar.head])
            cut = span_intersect(spans[ar.tail], pre, dims.v[ar.tail])
            if cut != spans[ar.tail]:
                spans[ar.tail] = cut
                changed = True
    return spans


def _core_samples():
    rng = random.Random(404)
    for e in corpus().values():
        q, dims = e.quiver, e.dims
        for k in range(80):
            rep = random_representation(rng, q, dims)
            variant = k % 4
            if variant == 1:  # zeroed B: the core is the whole space
                rep.b.update({n: Mat.zero(dims.d[n], dims.v[n]) for n in q.nodes})
            elif variant == 2:  # zeroed X
                rep.x.update({a.id: Mat.zero(dims.v[a.head], dims.v[a.tail]) for a in q.arrows})
            elif variant == 3:  # rank-one X
                for a in q.arrows:
                    col = random_matrix(rng, dims.v[a.head], 1)
                    row = random_matrix(rng, 1, dims.v[a.tail])
                    rep.x[a.id] = col.matmul(row)
            yield q, dims, rep
    for v in range(2, 7):
        q = Quiver(("0",), (Arrow("eps", "0", "0"),))
        aux = build_aux(q, ArrowSplit((), ("eps",)), DimData({"0": v}, {"0": 1}))
        for _ in range(12):
            rep, _ = random_leg_stable_aux(rng, aux)
            yield aux.quiver, DimData(aux.v, aux.d), rep


def test_cogenerated_core_matches_preimage_reference():
    count = nonzero = 0
    for q, dims, rep in _core_samples():
        core = cogenerated_core(q, dims, rep)
        assert core == _core_reference(q, dims, rep)
        for n in q.nodes:
            assert all(not any(rep.b[n].apply(vec)) for vec in core[n])
        for ar in q.arrows:
            for vec in core[ar.tail]:
                assert in_span(rep.x[ar.id].apply(vec), core[ar.head], dims.v[ar.head])
        count += 1
        nonzero += any(core[n] for n in q.nodes)
    assert count >= 400
    assert 0 < nonzero < count


def _closure_reference(q, dims, rep, seeds, include_framing):
    """The closure by sweeps over all arrows, re-reducing every head span,
    until a whole sweep adds nothing."""
    spans = {}
    for n in q.nodes:
        vecs = [tuple(v) for v in seeds.get(n, ())]
        if include_framing:
            vecs += [rep.a[n].col_tuple(j) for j in range(rep.a[n].cols)]
        spans[n] = reduce_span(vecs, dims.v[n])
    changed = True
    while changed:
        changed = False
        for ar in q.arrows:
            images = tuple(rep.x[ar.id].apply(v) for v in spans[ar.tail])
            merged = reduce_span(spans[ar.head] + images, dims.v[ar.head])
            if merged != spans[ar.head]:
                spans[ar.head] = merged
                changed = True
    return spans


def _seed_kinds(rng, q, dims):
    """Unit, random, zero and empty seeds for one representation."""
    nodes = [n for n in q.nodes if dims.v[n]]
    n = rng.choice(nodes)
    j = rng.randrange(dims.v[n])
    unit = {n: [tuple(Fraction(int(i == j)) for i in range(dims.v[n]))]}
    rand = {m: [tuple(random_fraction(rng) for _ in range(dims.v[m])) for _ in range(rng.randint(1, 2))]
            for m in nodes if rng.random() < 0.7}
    zero = {m: [(0,) * dims.v[m]] for m in q.nodes}
    return {"unit": unit, "random": rand, "zero": zero, "empty": {}}


def test_generated_closure_matches_sweep_reference():
    # the rank-one loop maps of _core_samples have rows with different
    # denominators; scaling each row of an arrow matrix separately changes
    # the map, and the Jordan v = 3 samples then close to the wrong span.
    # A block of four consecutive samples covers the four _core_samples
    # variants, and each block takes the next seed kind.
    rng = random.Random(505)
    count = proper = 0
    for i, (q, dims, rep) in enumerate(_core_samples()):
        kind, seeds = list(_seed_kinds(rng, q, dims).items())[i // 4 % 4]
        for include_framing in (False, True):
            got = generated_closure(q, dims, rep, seeds, include_framing)
            assert got == _closure_reference(q, dims, rep, seeds, include_framing), (i, kind)
            count += 1
            proper += 0 < sum(map(len, got.values())) < sum(dims.v.values())
    assert count >= 900
    assert proper > count // 10


def test_generated_closure_refuses_seed_of_wrong_length():
    q, _, dims, rep = jordan_rep([[0, 0], [1, 0]], [[1], [0]], [[0, 0]])
    with pytest.raises(ValueError):
        generated_closure(q, dims, rep, {"0": [(1, 0, 0)]})
    with pytest.raises(ValueError):
        generated_closure(q, dims, rep, {"0": [(1,)]}, include_framing=True)


def test_cogenerated_core_monotone_in_b_kernel():
    # enlarging ker B enlarges the core
    q, _, dims, rep_small = jordan_rep([[0, 0], [0, 0]], [[0], [0]], [[1, 1]])
    _, _, _, rep_large = jordan_rep([[0, 0], [0, 0]], [[0], [0]], [[0, 0]])
    small = cogenerated_core(q, dims, rep_small)
    large = cogenerated_core(q, dims, rep_large)
    assert len(small["0"]) <= len(large["0"])


def test_is_stable_signdef_examples():
    theta_pos = {"0": Fraction(1)}
    theta_neg = {"0": Fraction(-1)}
    q, _, dims, r1 = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[1, 0]])
    assert is_stable_signdef(q, dims, r1, theta_pos)

    _, _, _, r2 = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[0, 1]])
    assert not is_stable_signdef(q, dims, r2, theta_pos)
    stable, w = stability_report(q, dims, r2, theta_pos)
    assert not stable and w.dims == {"0": 1}
    assert verify_witness(q, dims, r2, theta_pos, w)

    _, _, _, r3 = jordan_rep([[0, 0], [1, 0]], [[1], [0]], [[0, 0]])
    assert is_stable_signdef(q, dims, r3, theta_neg)


def test_mixed_sign_rejected():
    e = corpus()["a2sym"]
    rep = zero_representation(e.quiver, e.dims)
    with pytest.raises(MixedSignTheta):
        is_stable_signdef(e.quiver, e.dims, rep, {"0": Fraction(1), "1": Fraction(-1)})


def test_destabilizer_search_examples():
    theta_pos = {"0": Fraction(1)}
    q, _, dims, r2 = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[0, 1]])
    w = destabilizer_search(q, dims, r2, theta_pos, trials=10, seed=42)
    assert w is not None and w.dims == {"0": 1}
    assert verify_witness(q, dims, r2, theta_pos, w)

    zrep = zero_representation(q, dims)
    wz = destabilizer_search(q, dims, zrep, theta_pos, trials=10, seed=0)
    assert wz is not None and wz.dims == {"0": 1} and wz.pairing == 1

    _, _, _, r1 = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[1, 0]])
    assert destabilizer_search(q, dims, r1, theta_pos, trials=100, seed=5) is None


def test_search_never_contradicts_exact_checker():
    rng = random.Random(77)
    for name in ("jordan2", "a2sym", "loop2"):
        e = corpus()[name]
        for k in range(40):
            rep = random_representation(rng, e.quiver, e.dims)
            sign = 1 if k % 2 == 0 else -1
            theta = {n: Fraction(sign * rng.randint(1, 3)) for n in e.quiver.nodes}
            stable, w = stability_report(e.quiver, e.dims, rep, theta)
            found = destabilizer_search(e.quiver, e.dims, rep, theta, trials=40, seed=k)
            if stable:
                assert found is None
            else:
                assert verify_witness(e.quiver, e.dims, rep, theta, w)
                assert w.pairing > 0
            if found is not None:
                assert not stable
                assert verify_witness(e.quiver, e.dims, rep, theta, found)


def test_transfer_basic():
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rng = random.Random(101)
    xi = {"0": Fraction(1)}
    for _ in range(60):
        rep, t = random_leg_stable_aux(rng, aux)
        rpt = check_stability_transfer(aux, rep, t, xi)
        assert rpt.inclusion_ok
        assert rpt.delta == Fraction(1, 8)


def test_transfer_rejects_non_leg_stable():
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    zrep = zero_representation(aux.quiver, DimData(aux.v, aux.d))
    with pytest.raises(ValueError):
        check_stability_transfer(aux, zrep, {"eps": 0, "loop:0": 0}, {"0": Fraction(1)})


def test_transfer_unstable_image_agrees():
    # a representation whose assembled image keeps an invariant line killed
    # by B: both sides must come out unstable, still in agreement
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        rep, t = random_leg_stable_aux(rng, aux)
        rpt = check_stability_transfer(aux, rep, t, {"0": Fraction(1)})
        assert rpt.inclusion_ok
        if not rpt.lhs_stable:
            hits += 1
            assert not rpt.rhs_stable
            assert rpt.lhs_witness is not None
    assert hits > 0  # the sample really exercises the unstable branch


def test_transfer_respects_delta_override():
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rng = random.Random(8)
    rep, t = random_leg_stable_aux(rng, aux)
    rpt = check_stability_transfer(aux, rep, t, {"0": Fraction(1)}, Fraction(1, 100))
    assert rpt.delta == Fraction(1, 100)
    with pytest.raises(ValueError):
        check_stability_transfer(aux, rep, t, {"0": Fraction(1)}, Fraction(1, 3))


def test_verify_witness_rejects_tampered_witnesses():
    theta_pos = {"0": Fraction(1)}
    q, _, dims, rep = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[0, 1]])
    stable, w = stability_report(q, dims, rep, theta_pos)
    assert not stable and verify_witness(q, dims, rep, theta_pos, w)
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    # recorded dims disagree with the basis
    assert not verify_witness(q, dims, rep, theta_pos, dataclasses.replace(w, dims={"0": 2}))
    # wrong recorded pairing
    assert not verify_witness(q, dims, rep, theta_pos, dataclasses.replace(w, pairing=w.pairing + 1))
    # zero subspace on the side missing the framing node
    zero = dataclasses.replace(w, dims={"0": 0}, basis={"0": ()}, pairing=Fraction(0))
    assert not verify_witness(q, dims, rep, theta_pos, zero)
    # X e2 = e1 leaves span(e2), although B kills e2
    _, _, _, b_zero = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[0, 0]])
    line2 = dataclasses.replace(w, basis={"0": (e2,)})
    assert not verify_witness(q, dims, b_zero, theta_pos, line2)
    # X = 0 keeps every line, but B does not kill e1
    _, _, _, x_zero = jordan_rep([[0, 0], [0, 0]], [[1], [0]], [[1, 0]])
    assert verify_witness(q, dims, x_zero, theta_pos, line2)
    assert not verify_witness(q, dims, x_zero, theta_pos, dataclasses.replace(w, basis={"0": (e1,)}))


def test_verify_witness_rejects_tampered_framing_witnesses():
    theta_neg = {"0": Fraction(-1)}
    q, _, dims, rep = jordan_rep([[0, 0], [0, 0]], [[1], [0]], [[0, 0]])
    stable, w = stability_report(q, dims, rep, theta_neg)
    assert not stable and w.includes_framing and w.basis["0"] == ((Fraction(1), Fraction(0)),)
    assert verify_witness(q, dims, rep, theta_neg, w)
    # span(e2) is invariant and proper but misses the A column e1
    e2 = (Fraction(0), Fraction(1))
    assert not verify_witness(q, dims, rep, theta_neg, dataclasses.replace(w, basis={"0": (e2,)}))
    # the whole space holds the framing node but is not proper
    whole = dataclasses.replace(
        w, dims={"0": 2}, basis={"0": ((Fraction(1), Fraction(0)), e2)}, pairing=Fraction(0)
    )
    assert not verify_witness(q, dims, rep, theta_neg, whole)


@pytest.mark.parametrize("theta", [1, -1])
def test_stability_entry_points_refuse_wrong_shapes(theta):
    # a 2x1 A block at a node of dimension 1
    q, _, dims, rep = jordan_rep([[0]], [[1], [0]], [[0]], v=1)
    theta = {"0": Fraction(theta)}
    for decide in (stability_report, is_stable_signdef):
        with pytest.raises(ValueError, match="A block at '0'"):
            decide(q, dims, rep, theta)
    with pytest.raises(ValueError, match="A block at '0'"):
        destabilizer_search(q, dims, rep, theta)


def test_transfer_rejects_non_scalar_leg():
    # unconstrained chains on a three-step leg: C's injective, moments not scalar
    e = corpus()["jordan3"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rng = random.Random(12)
    rep = random_representation(rng, aux.quiver, DimData(aux.v, aux.d))
    assert leg_stable(aux, rep) and leg_moment_scalars(aux, rep, "eps") is None
    with pytest.raises(ValueError, match="not scalar"):
        check_stability_transfer(aux, rep, {"eps": 0, "loop:0": 0}, {"0": Fraction(1)})
