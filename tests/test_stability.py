import dataclasses
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

from quiverlab.exactlinalg import Mat, in_span, preimage_span, reduce_span, span_intersect
from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver
from quiverlab.reps import Representation, leg_moment_scalars, leg_stable, zero_representation
from quiverlab.sampling import random_fraction, random_leg_stable_aux, random_matrix, random_representation
from quiverlab import stability
from quiverlab.stability import (
    MixedSignTheta,
    SubrepWitness,
    check_stability_transfer,
    cogenerated_core,
    destabilizer_search,
    generated_closure,
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
    assert stability_report(q, dims, r1, theta_pos)[0]

    _, _, _, r2 = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[0, 1]])
    stable, w = stability_report(q, dims, r2, theta_pos)
    assert not stable and w.dims == {"0": 1}
    assert verify_witness(q, dims, r2, theta_pos, w)

    _, _, _, r3 = jordan_rep([[0, 0], [1, 0]], [[1], [0]], [[0, 0]])
    assert stability_report(q, dims, r3, theta_neg)[0]


def test_mixed_sign_rejected():
    e = corpus()["a2sym"]
    rep = zero_representation(e.quiver, e.dims)
    with pytest.raises(MixedSignTheta):
        stability_report(e.quiver, e.dims, rep, {"0": Fraction(1), "1": Fraction(-1)})


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


def _search_reference(q, dims, rep, theta, trials, seed):
    """The search on Fractions: the same seed draws made as Fractions, a
    sweep closure per trial and the side rule through B.apply. Returns the
    witness or None, and whether a random trial found it."""
    rng = random.Random(seed)
    modes = [m for m, sign in ((False, 1), (True, -1)) if any(sign * theta[n] > 0 for n in q.nodes)]
    if not modes:
        return None, False

    def unit(vn, j):
        return tuple(Fraction(int(i == j)) for i in range(vn))

    systematic = [(m, {}) for m in modes if m]
    for m in modes:
        for n in q.nodes:
            for j in range(dims.v[n]):
                systematic.append((m, {n: [unit(dims.v[n], j)]}))
    for trial in range(trials):
        if trial < len(systematic):
            include_framing, seeds = systematic[trial]
        else:
            include_framing = modes[trial % len(modes)]
            seeds = {}
            for n in q.nodes:
                vn = dims.v[n]
                if vn == 0:
                    continue
                if rng.random() < 0.5:
                    chosen = [j for j in range(vn) if rng.random() < 0.4]
                    seeds[n] = [unit(vn, j) for j in chosen]
                else:
                    count = rng.randint(0, max(0, vn - 1))
                    seeds[n] = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(vn)) for _ in range(count)]
        spans = _closure_reference(q, dims, rep, seeds, include_framing)
        if include_framing:
            side = any(len(spans[n]) < dims.v[n] for n in q.nodes)
        else:
            side = any(spans[n] for n in q.nodes) and not any(
                any(rep.b[n].apply(vec)) for n in q.nodes for vec in spans[n]
            )
        if not side:
            continue
        sub = {n: len(spans[n]) for n in q.nodes}
        pairing = sum(theta[n] * (sub[n] - include_framing * dims.v[n]) for n in q.nodes)
        if pairing > 0:
            return SubrepWitness(sub, spans, pairing, include_framing), trial >= len(systematic)
    return None, False


def _search_problems():
    """320 seeded problems over every corpus entry: positive, negative and
    (on two nodes) mixed theta; plain, zeroed A, zeroed B and rank-one
    arrow blocks, and blocks that kill a non-coordinate line; and every
    seventh problem with one node of dimension 0."""
    rng = random.Random(1515)
    entries = list(corpus().values())
    for k in range(320):
        e = entries[k % len(entries)]
        q = e.quiver
        v = dict(e.dims.v)
        if k % 7 == 3:
            v[rng.choice(q.nodes)] = 0
        dims = DimData(v, e.dims.d)
        rep = random_representation(rng, q, dims)
        variant = k // len(entries) % 5
        if variant == 1:
            rep.a.update({n: Mat.zero(dims.v[n], dims.d[n]) for n in q.nodes})
        elif variant == 2:
            rep.b.update({n: Mat.zero(dims.d[n], dims.v[n]) for n in q.nodes})
        elif variant == 3:
            for a in q.arrows:
                col = random_matrix(rng, dims.v[a.head], 1)
                rep.x[a.id] = col.matmul(random_matrix(rng, 1, dims.v[a.tail]))
        elif variant == 4 and 2 in v.values():
            # B and every arrow out of a node of dimension 2 kill the line
            # of w = (1, +-1), so only a random vector seed finds that line
            n = next(n for n in q.nodes if v[n] == 2)
            s = rng.choice((1, -1))
            kill = Mat([[Fraction(1, 2), Fraction(-s, 2)], [Fraction(-s, 2), Fraction(1, 2)]])
            rep.b[n] = rep.b[n].matmul(kill)
            rep.x.update({a.id: rep.x[a.id].matmul(kill) for a in q.arrows if a.tail == n})
        signs = (1, -1, 0) if len(q.nodes) > 1 else (1, -1)
        sign = signs[k // (5 * len(entries)) % len(signs)]
        if sign:
            theta = {n: Fraction(sign * rng.randint(1, 3)) for n in q.nodes}
        else:
            theta = {n: Fraction(s * rng.randint(1, 3)) for n, s in zip(q.nodes, rng.choice([(1, -1), (-1, 1)]))}
        yield q, dims, rep, theta, k


def test_destabilizer_search_matches_fraction_search():
    # a per-row scale of the arrow matrices changes the maps of the random
    # and rank-one arrow blocks, and with them some closures and witnesses;
    # budgets 1 and 5 end inside the systematic phase or just past it, and
    # a pruned trial that drew the wrong seeds would shift every later one
    problems = list(_search_problems())
    for trials in (1, 5, 30, 50):
        found = late = 0
        signs = set()
        for q, dims, rep, theta, seed in problems:
            want, random_trial = _search_reference(q, dims, rep, theta, trials, seed)
            assert destabilizer_search(q, dims, rep, theta, trials=trials, seed=seed) == want, (trials, seed)
            found += want is not None
            late += random_trial
            signs.add(frozenset(theta[n] > 0 for n in q.nodes))
        assert len(signs) == 3
        if trials == 30:
            assert 80 <= found <= 240
            assert late > 0


def test_search_refuses_an_empty_budget():
    q, _, dims, rep = jordan_rep([[0, 1], [0, 0]], [[1], [0]], [[0, 1]])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        destabilizer_search(q, dims, rep, {"0": Fraction(1)}, trials=0)


def test_random_phase_draws_nothing_at_a_node_of_dimension_zero():
    # a2sym at v = (2, 0) with B = (1, -1) at node 0: only the line of
    # (1, 1) is killed by B, no coordinate line reaches it, so every search
    # runs random trials, and node 1 draws no seeds in them
    e = corpus()["a2sym"]
    q, dims = e.quiver, DimData({"0": 2, "1": 0}, e.dims.d)
    rng = random.Random(3434)
    late = 0
    for seed in range(40):
        rep = random_representation(rng, q, dims)
        rep.b["0"] = Mat([[1, -1]])
        theta = {"0": Fraction(rng.randint(1, 3)), "1": Fraction(rng.choice((-1, 1)))}
        for trials in (3, 10, 30):
            want, random_trial = _search_reference(q, dims, rep, theta, trials, seed)
            assert destabilizer_search(q, dims, rep, theta, trials=trials, seed=seed) == want, (trials, seed)
            late += random_trial
    assert late > 0


def _node_bound_problems():
    """120 seeded mixed-theta problems in which only the per-node bound kills
    a mode: the core is nonzero, but only at nodes where theta <= 0, or the
    framing closure is short, but only at nodes where theta >= 0. Zeroing B
    and the arrows out of a node puts the node in the core; zeroing A and
    the arrows into it keeps the framing closure off it. Each problem comes
    with whether both modes are dead: a closure missing the framing pairs to
    at most theta over the core where theta > 0, one holding it to at most
    -theta over what the framing closure misses where theta < 0."""
    chain = Quiver(("0", "1", "2"), (Arrow("a", "0", "1"), Arrow("a*", "1", "0"),
                                     Arrow("b", "1", "2"), Arrow("b*", "2", "1")))
    shapes = [(e.quiver, e.dims) for e in corpus().values() if len(e.quiver.nodes) > 1]
    shapes.append((chain, DimData({"0": 1, "1": 2, "2": 1}, {"0": 1, "1": 0, "2": 1})))
    rng = random.Random(3232)
    seed = 0
    while seed < 120:
        q, dims = rng.choice(shapes)
        signs = [rng.choice((1, -1, 0)) for _ in q.nodes]
        if 1 not in signs or -1 not in signs:
            continue
        theta = {n: Fraction(s * rng.randint(1, 3)) for n, s in zip(q.nodes, signs)}
        rep = random_representation(rng, q, dims)
        for n in q.nodes:
            if rng.random() < 0.5:
                rep.b[n] = Mat.zero(dims.d[n], dims.v[n])
                rep.x.update({a.id: Mat.zero(dims.v[a.head], dims.v[n]) for a in q.arrows if a.tail == n})
            if rng.random() < 0.5:
                rep.a[n] = Mat.zero(dims.v[n], dims.d[n])
                rep.x.update({a.id: Mat.zero(dims.v[n], dims.v[a.tail]) for a in q.arrows if a.head == n})
        core = cogenerated_core(q, dims, rep)
        framing = generated_closure(q, dims, rep, {}, True)
        missing = sum(theta[n] * len(core[n]) for n in q.nodes if theta[n] > 0)
        holding = sum(-theta[n] * (dims.v[n] - len(framing[n])) for n in q.nodes if theta[n] < 0)
        short = any(len(framing[n]) < dims.v[n] for n in q.nodes)
        if (any(core.values()) and not missing) or (short and not holding):
            seed += 1
            yield q, dims, rep, theta, seed, not missing and not holding


def test_search_with_modes_killed_per_node_matches_fraction_search(monkeypatch):
    # a search whose modes are all dead draws nothing; one with a live mode
    # finds what the reference finds, also when its other mode is dead
    problems = list(_node_bound_problems())
    draws = _count_draws(monkeypatch)
    for trials in (1, 5, 30, 50):
        kinds = Counter()
        for q, dims, rep, theta, seed, dead in problems:
            want = _search_reference(q, dims, rep, theta, trials, seed)[0]
            del draws[:]
            assert destabilizer_search(q, dims, rep, theta, trials=trials, seed=seed) == want, (trials, seed)
            if dead:
                assert want is None and not draws, (trials, seed)
            kinds[len(q.nodes), dead, want is not None] += 1
        if trials == 50:
            assert kinds == {(2, False, True): 35, (2, False, False): 4, (2, True, False): 24,
                             (3, False, True): 45, (3, False, False): 8, (3, True, False): 4}


def _disagreements():
    return sum(
        destabilizer_search(q, dims, rep, theta, trials=30, seed=seed)
        != _search_reference(q, dims, rep, theta, 30, seed)[0]
        for q, dims, rep, theta, seed in _search_problems()
    )


def test_fraction_search_catches_an_empty_core(monkeypatch):
    # with no core every trial missing the framing is skipped, so the
    # reference search must find destabilizers that the search then misses
    monkeypatch.setattr(stability, "_core", lambda form, dims: {n: {} for n in form.arrows_out})
    assert _disagreements() > 0


def test_fraction_search_catches_a_full_framing_closure(monkeypatch):
    # a framing closure read as full skips every trial holding the framing
    generate = stability._generate

    def full_framing(form, dims, seeds, include_framing):
        if not include_framing:
            return generate(form, dims, seeds, include_framing)
        return {n: {j: [int(i == j) for i in range(dims.v[n])] for j in range(dims.v[n])} for n in form.arrows_out}

    monkeypatch.setattr(stability, "_generate", full_framing)
    assert _disagreements() > 0


def _count_draws(monkeypatch):
    """Swap the search's random.Random for one that records every draw; the
    reference search keeps the real module. A subclass that overrides
    random() alone would make randint draw through it instead of through
    getrandbits, so both are overridden and the stream stays the same."""
    draws = []

    class Counted(random.Random):
        def random(self):
            draws.append("random")
            return super().random()

        def getrandbits(self, k):
            draws.append("getrandbits")
            return super().getrandbits(k)

    monkeypatch.setattr(stability, "random", types.SimpleNamespace(Random=Counted))
    return draws


def _count_closures(monkeypatch):
    calls = []
    closure = stability._closure

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return closure(*args, **kwargs)

    monkeypatch.setattr(stability, "_closure", counted)
    return calls


def test_dead_search_returns_before_its_first_draw(monkeypatch):
    # a2sym with a* = 0: node 1 has no B and sends nothing back, so the core
    # is the line at node 1; A and a fill both nodes with the framing closure
    e = corpus()["a2sym"]
    q, dims = e.quiver, e.dims
    rep = Representation({"a": Mat([[1]]), "a*": Mat([[0]])}, {"0": Mat([[1]]), "1": Mat.zero(1, 0)},
                         {"0": Mat([[1]]), "1": Mat.zero(0, 1)})
    dead = {"0": Fraction(1), "1": Fraction(-1)}
    draws = _count_draws(monkeypatch)
    calls = _count_closures(monkeypatch)
    # the core is nonzero, but only where theta < 0, and the framing
    # closure is full: only the core's and the framing's closures run
    assert destabilizer_search(q, dims, rep, dead, trials=50, seed=4) is None
    assert draws == [] and len(calls) == 2
    assert _search_reference(q, dims, rep, dead, 50, 4) == (None, False)
    # with the signs swapped the core's line pairs to 1
    w = destabilizer_search(q, dims, rep, {"0": Fraction(-1), "1": Fraction(1)}, trials=50, seed=4)
    assert w.dims == {"0": 0, "1": 1} and w.pairing == 1 and not w.includes_framing
    # with B_0 = 0 the core is everything: the mode missing the framing is
    # live, every closure of it pairs to 0 or -1, and the budget runs out
    rep.b["0"] = Mat([[0]])
    del draws[:]
    assert destabilizer_search(q, dims, rep, dead, trials=50, seed=4) is None
    assert draws


def test_dead_mode_beside_a_live_one_runs_no_trial_closure(monkeypatch):
    # a2sym with a = a* = 0 and A_0 = B_0 = 1 at theta = (-1, +1): the
    # framing closure fills node 0 and misses node 1, where theta > 0, so
    # the mode holding the framing is dead; the core is the line at node 1
    e = corpus()["a2sym"]
    q, dims = e.quiver, e.dims
    rep = Representation({"a": Mat([[0]]), "a*": Mat([[0]])}, {"0": Mat([[1]]), "1": Mat.zero(1, 0)},
                         {"0": Mat([[1]]), "1": Mat.zero(0, 1)})
    theta = {"0": Fraction(-1), "1": Fraction(1)}
    calls = _count_closures(monkeypatch)
    w = destabilizer_search(q, dims, rep, theta, trials=50, seed=4)
    # no trial grows from the framing closure, the core's line is found
    assert not any("start" in kwargs for kwargs in calls)
    assert w.dims == {"0": 0, "1": 1} and w.pairing == 1 and not w.includes_framing
    assert w == _search_reference(q, dims, rep, theta, 50, 4)[0]
    assert verify_witness(q, dims, rep, theta, w)


def test_exact_verdict_is_a_dead_search(monkeypatch):
    # for sign-definite theta the report is stable exactly when the search
    # draws nothing and runs only the closure of its one extreme subspace
    draws = _count_draws(monkeypatch)
    calls = _count_closures(monkeypatch)
    count = stable_count = 0
    for q, dims, rep, theta, seed in _search_problems():
        if len({theta[n] > 0 for n in q.nodes}) > 1:
            continue
        count += 1
        stable, w = stability_report(q, dims, rep, theta)
        del draws[:], calls[:]
        destabilizer_search(q, dims, rep, theta, trials=50, seed=seed)
        assert stable == (not draws and len(calls) == 1), seed
        if stable:
            stable_count += 1
        else:
            assert verify_witness(q, dims, rep, theta, w) and w.pairing > 0, seed
    assert count == 260
    assert 0 < stable_count < count


def test_search_on_a_stable_representation_makes_two_closures(monkeypatch):
    # stable at +theta the core is zero, so no trial missing the framing
    # survives; stable at -theta the framing closure is full, so no trial
    # holding it is proper: only the core's and the framing's closures run,
    # and the search returns before its first draw
    e = corpus()["loop2"]
    q, dims = e.quiver, e.dims
    rng = random.Random(2121)
    for _ in range(20):
        rep = random_representation(rng, q, dims)
        if all(stability_report(q, dims, rep, {n: Fraction(s) for n in q.nodes})[0] for s in (1, -1)):
            break
    else:
        pytest.fail("no representation stable at both signs")
    draws = _count_draws(monkeypatch)
    calls = _count_closures(monkeypatch)
    theta = {"0": Fraction(2), "1": Fraction(-1)}
    assert destabilizer_search(q, dims, rep, theta, trials=50, seed=3) is None
    assert len(calls) <= 2 and draws == []


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


def test_transfer_refuses_nonpositive_xi():
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rep, t = random_leg_stable_aux(random.Random(9), aux)
    for xi in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="xi must be strictly positive on every base node"):
            check_stability_transfer(aux, rep, t, {"0": xi})


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
    # a basis vector of the wrong length, and a witness that leaves out the
    # node in its basis or in its dims
    long = dataclasses.replace(w, basis={"0": (e2 + (Fraction(0),),)})
    assert not verify_witness(q, dims, x_zero, theta_pos, long)
    assert not verify_witness(q, dims, x_zero, theta_pos, dataclasses.replace(line2, basis={}))
    assert not verify_witness(q, dims, x_zero, theta_pos, dataclasses.replace(line2, dims={}))
    # a basis that is not a sequence of vectors, and entries that are not
    # exact rationals
    for basis in (e2, 5, (5,), (None,), ((Fraction(0), None),), ((0, True),), ((0, "x"),), (("0", "1"),)):
        assert not verify_witness(q, dims, x_zero, theta_pos, dataclasses.replace(line2, basis={"0": basis}))
    # ints serve as well as Fractions
    assert verify_witness(q, dims, x_zero, theta_pos, dataclasses.replace(line2, basis={"0": [[0, 1]]}))
    # recorded values of the wrong type: a bool or float dimension, a float
    # pairing, a mode that is not a bool, and containers that are not dicts,
    # on the witnesses of both modes
    theta_neg = {"0": Fraction(-1)}
    q, _, dims, rep_neg = jordan_rep([[0, 0], [0, 0]], [[1], [0]], [[0, 0]])
    stable, w_neg = stability_report(q, dims, rep_neg, theta_neg)
    assert not stable and w_neg.includes_framing and w_neg.dims == {"0": 1}
    for witness, r, theta in ((w_neg, rep_neg, theta_neg), (w, rep, theta_pos)):
        assert verify_witness(q, dims, r, theta, witness)
        for change in (
            {"dims": {"0": True}}, {"dims": {"0": float(witness.dims["0"])}, "pairing": float(witness.pairing)},
            {"pairing": float(witness.pairing)}, {"includes_framing": int(witness.includes_framing)},
            {"includes_framing": "yes"}, {"basis": None}, {"dims": None},
            {"basis": tuple(witness.basis.items())},
        ):
            assert verify_witness(q, dims, r, theta, dataclasses.replace(witness, **change)) is False
        # an int pairing serves as well as a Fraction
        assert verify_witness(q, dims, r, theta, dataclasses.replace(witness, pairing=int(witness.pairing)))


def test_verify_witness_rejects_a_repeated_basis_vector():
    # X e1 = e2 and B kills e1 but not e2: span(e1) is not invariant, so
    # the representation is stable at theta = 1
    theta_pos = {"0": Fraction(1)}
    q, _, dims, rep = jordan_rep([[0, 0], [1, 0]], [[1], [0]], [[0, 1]])
    assert stability_report(q, dims, rep, theta_pos) == (True, None)
    e1 = (Fraction(1), Fraction(0))
    # two copies of e1 claim the whole plane, which B does not kill
    forged = SubrepWitness(dims={"0": 2}, basis={"0": (e1, e1)}, pairing=Fraction(2),
                           includes_framing=False)
    assert not in_span((0, 1), (e1, e1), 2)
    assert not verify_witness(q, dims, rep, theta_pos, forged)
    # with X = 0 the line span(e1) is invariant and killed by B, but the two
    # copies still span only that line
    _, _, _, x_zero = jordan_rep([[0, 0], [0, 0]], [[1], [0]], [[0, 1]])
    line = dataclasses.replace(forged, dims={"0": 1}, basis={"0": (e1,)}, pairing=Fraction(1))
    assert verify_witness(q, dims, x_zero, theta_pos, line)
    assert not verify_witness(q, dims, x_zero, theta_pos, forged)


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
    # a basis vector of the wrong length, and a witness that leaves out the
    # node in its basis or in its dims
    assert not verify_witness(q, dims, rep, theta_neg, dataclasses.replace(w, basis={"0": ((Fraction(1),),)}))
    assert not verify_witness(q, dims, rep, theta_neg, dataclasses.replace(w, basis={}))
    assert not verify_witness(q, dims, rep, theta_neg, dataclasses.replace(w, dims={}))


@pytest.mark.parametrize("theta", [1, -1, 0])
def test_stability_entry_points_refuse_wrong_shapes(theta):
    # a 2x1 A block at a node of dimension 1, and a 1x3 B block at a node of
    # dimension 2, on which the witness e1 passes every check but the shape
    e1 = SubrepWitness({"0": 1}, {"0": ((Fraction(1), Fraction(0)),)}, Fraction(theta), False)
    cases = [
        (jordan_rep([[0]], [[1], [0]], [[0]], v=1), "A block at '0'"),
        (jordan_rep([[0, 0], [0, 0]], [[1], [0]], [[0, 1, 5]]), "B block at '0'"),
    ]
    theta = {"0": Fraction(theta)}
    for (q, _, dims, rep), needle in cases:
        for call in (
            lambda: stability_report(q, dims, rep, theta),
            lambda: destabilizer_search(q, dims, rep, theta),
            lambda: generated_closure(q, dims, rep, {}),
            lambda: cogenerated_core(q, dims, rep),
            lambda: verify_witness(q, dims, rep, theta, e1),
        ):
            with pytest.raises(ValueError, match=needle):
                call()


def test_transfer_rejects_non_scalar_leg():
    # unconstrained chains on a three-step leg: C's injective, moments not scalar
    e = corpus()["jordan3"]
    aux = build_aux(e.quiver, e.split, e.dims)
    rng = random.Random(12)
    rep = random_representation(rng, aux.quiver, DimData(aux.v, aux.d))
    assert leg_stable(aux, rep) and leg_moment_scalars(aux, rep, "eps") is None
    with pytest.raises(ValueError, match="not scalar"):
        check_stability_transfer(aux, rep, {"eps": 0, "loop:0": 0}, {"0": Fraction(1)})
