import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from quiverlab.quiver import Arrow, ArrowSplit, DimData, Quiver, node_key
from quiverlab.surgery import dim_quiver_variety
from quiverlab import torus
from quiverlab.torus import (
    MAX_FIXED_GRADINGS,
    TorusAction,
    fixed_components,
    fixed_self_dual_check,
    induced_action,
    self_dual_check,
)
from quiverlab.corpus import corpus


def test_loop_must_carry_zero_character():
    e = corpus()["jordan2"]
    bad = TorusAction(1, {"eps": (1,)}, {"0": ((1,),)})
    with pytest.raises(ValueError, match="must carry the zero character"):
        self_dual_check(e.quiver, e.split, e.dims, bad)


def test_self_dual_check_positive_and_negative():
    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e = corpus()[name]
        assert self_dual_check(e.quiver, e.split, e.dims, e.action)
    # break the pairing by assigning both sides the same character
    e = corpus()["a2sym"]
    broken = TorusAction(1, {"a": (1,), "a*": (1,)}, {"0": ((0,),), "1": ()})
    assert not self_dual_check(e.quiver, e.split, e.dims, broken)
    # trivial action is self-dual
    triv = TorusAction(1, {}, {"0": ((0,),), "1": ()})
    assert self_dual_check(e.quiver, e.split, e.dims, triv)


def _labelled_multiset_self_dual(q, split, dims, act):
    """Reference check over every block: each labelled weight, arrow or
    framing, must meet its negation on the transposed block."""
    act.validate(q, split, dims)
    blocks = []  # (char, kind, where, mult) for every nonzero block
    for ar in q.arrows:
        m = dims.v[ar.tail] * dims.v[ar.head]
        if m:
            blocks.append((act.char(ar.id, split), "arrow", (ar.tail, ar.head), m))
    for n in q.nodes:
        for ch in act.framing(n):
            if dims.v[n]:
                blocks.append((ch, "A", n, dims.v[n]))
                blocks.append((tuple(-c for c in ch), "B", n, dims.v[n]))
    dual_kind = {"arrow": "arrow", "A": "B", "B": "A"}
    bag, dual = Counter(), Counter()
    for ch, kind, where, m in blocks:
        bag[(ch, kind, where)] += m
        flipped = where[::-1] if kind == "arrow" else where
        dual[(tuple(-c for c in ch), dual_kind[kind], flipped)] += m
    return bag == dual


def _random_symmetric_problem(rng):
    rank = rng.randint(1, 2)
    nodes = tuple(str(i) for i in range(rng.randint(1, 3)))
    arrows, pairs, loops, chars = [], [], [], {}
    broken = False

    def rand_char():
        return tuple(rng.randint(-2, 2) for _ in range(rank))

    for k in range(rng.randint(1, 4)):
        t, h = rng.choice(nodes), rng.choice(nodes)
        if t == h and rng.random() < 0.5:
            arrows.append(Arrow(f"l{k}", t, t))
            loops.append(f"l{k}")
            continue
        a, b = f"a{k}", f"a{k}*"
        arrows += [Arrow(a, t, h), Arrow(b, h, t)]
        pairs.append((a, b))
        ch = rand_char()
        if rng.random() < 0.2:
            # both sides explicit and not opposite
            other = rand_char()
            while other == tuple(-c for c in ch):
                other = rand_char()
            chars[a], chars[b] = ch, other
            broken = True
        elif rng.random() < 0.8:
            chars[rng.choice((a, b))] = ch
    q = Quiver(nodes, tuple(arrows))
    split = ArrowSplit(tuple(pairs), tuple(loops))
    dims = DimData({n: rng.randint(0, 2) for n in nodes}, {n: rng.randint(0, 2) for n in nodes})
    framing = {n: tuple(rand_char() for _ in range(dims.d[n])) for n in nodes}
    return q, split, dims, TorusAction(rank, chars, framing), broken


def test_self_dual_check_matches_labelled_multiset_reference():
    rng = random.Random(20261018)
    not_self_dual = broken_pairs = framed = 0
    for _ in range(600):
        q, split, dims, act, broken = _random_symmetric_problem(rng)
        expected = _labelled_multiset_self_dual(q, split, dims, act)
        assert self_dual_check(q, split, dims, act) == expected
        not_self_dual += not expected
        broken_pairs += broken and not expected
        framed += any(dims.d[n] and dims.v[n] for n in q.nodes)
    assert not_self_dual >= 20 and broken_pairs >= 20
    assert framed >= 200


def test_fixed_components_refuses_what_both_duality_rules_refused():
    # the old sequence: self-duality at every cocharacter, then opposite
    # pairs at a nonzero one; the window (0, 0) keeps one grading
    rng = random.Random(20261019)
    refused = {True: 0, False: 0}
    for _ in range(600):
        q, split, dims, act, _ = _random_symmetric_problem(rng)
        sigma = tuple(rng.choice((0, 0, 1, -1)) for _ in range(act.rank))
        zero = not any(sigma)
        opposite = all(
            act.char(b, split) == tuple(-c for c in act.char(a, split)) for a, b in split.pairs
        )
        old_refuses = not self_dual_check(q, split, dims, act) or not (zero or opposite)
        try:
            fixed_components(q, split, dims, act, sigma, (0, 0))
        except ValueError as e:
            assert old_refuses
            # at a nonzero cocharacter only the opposite-pair rule runs
            assert ("not self-dual" if zero else "need opposite characters") in str(e)
            refused[zero] += 1
        else:
            assert not old_refuses
    assert min(refused.values()) >= 20


def test_fixed_components_sigma_zero():
    # loop2 has a loop and an arrow with a nonzero character
    for name in ("jordan2", "a2sym", "framed2", "loop2"):
        e = corpus()[name]
        cands = fixed_components(
            e.quiver, e.split, e.dims, e.action, (0,) * e.action.rank, e.window
        )
        assert len(cands) == 1
        cand = cands[0]
        assert cand.action is e.action
        # the real characters stay for the induced action
        assert cand.resolved == torus._resolved(e.quiver, e.split, e.action)
        assert {n: sum(g.values()) for n, g in cand.grading.items()} == dict(e.dims.v)
        # derived quiver is the input itself, relabelled node for node
        assert len(cand.quiver.arrows) == len(e.quiver.arrows)
        z = (0,) * e.action.rank
        assert cand.quiver == Quiver(
            tuple((n, z) for n in e.quiver.nodes),
            tuple(Arrow((a.id, z), (a.tail, z), (a.head, z)) for a in e.quiver.arrows),
        )
        assert cand.split == ArrowSplit(
            tuple(((a, z), (b, z)) for a, b in e.split.pairs),
            tuple((l, z) for l in e.split.loops),
        )
        assert cand.framing_slots == {
            (n, z): tuple(range(e.dims.d[n])) for n in e.quiver.nodes
        }
        assert (cand.v, cand.d) == (
            {(n, z): e.dims.v[n] for n in e.quiver.nodes},
            {(n, z): e.dims.d[n] for n in e.quiver.nodes},
        )
        assert cand.dim_fixed() == dim_quiver_variety(e.quiver, e.dims)
        assert dict(cand.tangent()) == {
            (0,) * e.action.rank: dim_quiver_variety(e.quiver, e.dims)
        }


def test_fixed_components_jordan_framing_alignment():
    e = corpus()["jordan2"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, (1,), (-1, 1))
    # the grading putting weight on the framing character keeps its framing
    aligned = [c for c in cands if c.d.get(("0", (1,)), 0) > 0]
    assert aligned
    for c in aligned:
        assert all(slot_char == (1,) for nd, slots in c.framing_slots.items()
                   if nd[1] == (1,) for slot_char in [(1,)] * len(slots))


def test_fixed_components_a2sym_weight_shift():
    e = corpus()["a2sym"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, (1,))
    by_name = {c.name(): c for c in cands}
    # the grading (0, 1) aligns the arrow pair: derived quiver = whole thing
    full = by_name["0[0x1] 1[1x1]"]
    assert len(full.quiver.arrows) == 2
    for copy in full.quiver.arrows:
        base, w = copy.id
        if base == "a":
            assert copy.tail == ("0", (0,)) and copy.head == ("1", (1,))
    assert full.dim_fixed() == 2


def test_grading_sums_back_to_v():
    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e = corpus()[name]
        cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
        for c in cands:
            for n in e.quiver.nodes:
                assert sum(c.grading[n].values()) == e.dims.v[n]


def test_tangent_negation_symmetric_and_zero_part():
    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e = corpus()[name]
        cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
        assert cands
        for c in cands:
            tangent = c.tangent()
            rank = e.action.rank
            zero = (0,) * rank
            # sorted items, not Counters: Counter equality ignores zero counts
            assert all(tangent.values())
            neg = {tuple(-x for x in ch): m for ch, m in tangent.items()}
            assert sorted(neg.items()) == sorted(tangent.items())
            # the derived quiver is the oracle for the zero part
            assert tangent.get(zero, 0) == dim_quiver_variety(c.quiver, DimData(c.v, c.d))
            assert c.dim_fixed() == tangent.get(zero, 0)
            # total count is the ambient dimension
            assert sum(tangent.values()) == dim_quiver_variety(e.quiver, e.dims)


def test_fixed_self_dual_check():
    # the induced action is valid by construction, so fixed_self_dual_check
    # skips its validate; both are checked here against the validated path
    cands = []
    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e = corpus()[name]
        cands += fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
    corpus_count = len(cands)
    rng = random.Random(23)
    while len(cands) < 600:
        q, split, dims, act, broken = _random_symmetric_problem(rng)
        if not broken:
            sigma = tuple(rng.choice((0, 1, -1, 2)) for _ in range(act.rank))
            cands += fixed_components(q, split, dims, act, sigma, (-1, 1) if act.rank == 1 else (0, 1))
    for i, c in enumerate(cands):
        act, dims = induced_action(c), DimData(c.v, c.d)
        act.validate(c.quiver, c.split, dims)
        assert fixed_self_dual_check(c) == self_dual_check(c.quiver, c.split, dims, act)
        if i < corpus_count:
            assert fixed_self_dual_check(c)


def test_fixed_self_dual_negative_control():
    e = corpus()["a2sym"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, (1,))
    cand = next(c for c in cands if len(c.quiver.arrows) == 2)
    act = induced_action(cand)
    # corrupt one arrow character so the pair no longer negates
    victim = cand.quiver.arrows[0].id
    act.arrow_chars[victim] = (5,)
    dims = DimData(cand.v, cand.d)
    assert not self_dual_check(cand.quiver, cand.split, dims, act)


def test_anchoring_merges_shifted_gradings():
    # unframed component: gradings differing by a global shift are one lift
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    split = ArrowSplit((), ("eps",))
    dims = DimData({"0": 2}, {"0": 0})
    act = TorusAction(1, {}, {"0": ()})
    cands = fixed_components(q, split, dims, act, (1,), (-1, 1))
    names = {c.name() for c in cands}
    # {0,0}, {0,1}, {0,2} after anchoring; shifted copies collapse
    assert len(cands) == 3, names


def test_window_validation_and_budget():
    e = corpus()["a2sym"]
    with pytest.raises(ValueError):
        fixed_components(e.quiver, e.split, e.dims, e.action, (1,), (2, 1))
    not_sd = TorusAction(1, {"a": (1,), "a*": (1,)}, {"0": ((0,),), "1": ()})
    with pytest.raises(ValueError):
        fixed_components(e.quiver, e.split, e.dims, not_sd, (1,))
    # loop2 over -20..20: 41 characters, C(42, 2) * 41 = 35301 gradings
    e = corpus()["loop2"]
    with pytest.raises(ValueError, match=f"35301 gradings.*{MAX_FIXED_GRADINGS}"):
        fixed_components(e.quiver, e.split, e.dims, e.action, (1,), (-20, 20))


def test_window_budget_is_checked_before_the_window_is_built():
    # rank 2 over -10**6..10**6: (2*10**6 + 1)**2 characters, never listed
    q, split = Quiver(("0",), (Arrow("eps", "0", "0"),)), ArrowSplit((), ("eps",))
    act, window = TorusAction(2, {}, {"0": ()}), (-10**6, 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"gradings, over the enumeration budget of {MAX_FIXED_GRADINGS}"):
            fixed_components(q, split, DimData({"0": 1}, {"0": 0}), act, (1, 0), window)
        # v = 0 has one grading, the empty one, at any window
        assert fixed_components(q, split, DimData({"0": 0}, {"0": 0}), act, (1, 0), window) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_gauge_dimension_is_refused_without_the_full_count():
    # a2sym at v = (10**6, 1) over the default window: C(3 * 10**6, 10**6)
    # gradings at node 0, a number of about 800,000 digits
    e = corpus()["a2sym"]
    dims = DimData({"0": 10**6, "1": 1}, e.dims.d)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"at least [0-9]+ gradings, over the enumeration budget of {MAX_FIXED_GRADINGS}"):
        fixed_components(e.quiver, e.split, dims, e.action, (1,))
    assert time.perf_counter() - start < 1


def test_fixed_components_jordan1_window_enumeration():
    # dimension-1 gauge space over window {0, 1}: the grading sitting at the
    # framing character keeps the framing, the other one loses it
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    split = ArrowSplit((), ("eps",))
    dims = DimData({"0": 1}, {"0": 1})
    act = TorusAction(1, {}, {"0": ((1,),)})
    cands = fixed_components(q, split, dims, act, (1,), (0, 1))
    gradings = {next(iter(c.grading["0"])) for c in cands}
    assert gradings == {(0,), (1,)}
    aligned = next(c for c in cands if (1,) in c.grading["0"])
    assert aligned.d[("0", (1,))] == 1
    other = next(c for c in cands if (0,) in c.grading["0"])
    assert other.d[("0", (0,))] == 0


def _reference_derived_quiver(q, split, act, grading):
    """The four-pass derived quiver the block view replaced."""
    nodes, v = [], {}
    for n in q.nodes:
        for ch, m in sorted(grading[n].items()):
            nodes.append((n, ch))
            v[(n, ch)] = m
    node_set = set(nodes)
    arrows, pairs, loops, arrow_of = [], [], [], {}
    for ar in q.arrows:
        ch = act.char(ar.id, split)
        for w, _ in sorted(grading[ar.tail].items()):
            src, dst = (ar.tail, w), (ar.head, tuple(x + y for x, y in zip(w, ch)))
            if src in node_set and dst in node_set:
                arrow_of[(ar.id, w)] = Arrow((ar.id, w), src, dst)
                arrows.append(arrow_of[(ar.id, w)])
    for a_id, astar_id in split.pairs:
        ch = act.char(a_id, split)
        for w, _ in sorted(grading[q.arrow(a_id).tail].items()):
            partner = (astar_id, tuple(x + y for x, y in zip(w, ch)))
            if (a_id, w) in arrow_of and partner in arrow_of:
                pairs.append(((a_id, w), partner))
    for l_id in split.loops:
        for w, _ in sorted(grading[q.arrow(l_id).head].items()):
            if (l_id, w) in arrow_of:
                loops.append((l_id, w))
    d, framing_slots = {}, {}
    for n in q.nodes:
        for w in grading[n]:
            aligned = tuple(slot for slot, ch in enumerate(act.framing(n)) if tuple(ch) == w)
            d[(n, w)], framing_slots[(n, w)] = len(aligned), aligned
    return Quiver(tuple(nodes), tuple(arrows)), ArrowSplit(tuple(pairs), tuple(loops)), v, d, framing_slots


def _reference_tangent(cand):
    """The three-loop tangent the block view replaced."""
    rank, g = cand.action.rank, cand.grading
    bag = Counter()
    if not any(cand.sigma):
        # the zero cocharacter fixes the whole space
        bag[(0,) * rank] = dim_quiver_variety(cand.base, cand.base_dims)
    else:
        for ar in cand.base.arrows:
            ch = cand.action.char(ar.id, cand.base_split)
            for w1, m1 in g[ar.tail].items():
                for w2, m2 in g[ar.head].items():
                    bag[tuple(c + x - y for c, x, y in zip(ch, w1, w2))] += m1 * m2
        for n in cand.base.nodes:
            for ch in cand.action.framing(n):
                for w, m in g[n].items():
                    bag[tuple(c - x for c, x in zip(ch, w))] += m   # A column
                    bag[tuple(x - c for c, x in zip(ch, w))] += m   # B row
            for w1, m1 in g[n].items():
                for w2, m2 in g[n].items():
                    bag[tuple(x - y for x, y in zip(w1, w2))] -= m1 * m2
    return Counter({ch: m for ch, m in bag.items() if m != 0})


def _block_view_problems():
    """The 320 seeded problems of the block-view test: each problem's
    fixed_components arguments, its candidates, and the at most 6 of them
    the test samples (the sample is drawn from the same stream)."""
    rng = random.Random(20261019)
    problems = 0
    while problems < 320:
        q, split, dims, act, broken = _random_symmetric_problem(rng)
        if broken:
            continue
        problems += 1
        sigma = tuple(rng.choice((0, 1, -1, 2)) for _ in range(act.rank))
        window = (-1, 1) if act.rank == 1 else (0, 1)
        cands = fixed_components(q, split, dims, act, sigma, window)
        yield (q, split, dims, act, sigma, window), cands, rng.sample(cands, min(len(cands), 6))


def test_block_view_matches_reference_derived_quiver_and_tangent():
    at_zero = aligned = paired = looped = 0
    for (q, split, dims, act, sigma, _), _, sample in _block_view_problems():
        zero_sigma = not any(sigma)
        for cand in sample:
            derive = act
            if zero_sigma:
                zero = (0,) * act.rank
                derive = TorusAction(act.rank, {}, {n: (zero,) * dims.d[n] for n in q.nodes})
            quiver, dsplit, v, d, slots = _reference_derived_quiver(q, split, derive, cand.grading)
            assert (cand.quiver, cand.split, cand.v, cand.d, cand.framing_slots) == (
                quiver, dsplit, v, d, slots
            )
            # sorted items, not Counters: Counter equality ignores zero counts
            assert sorted(cand.tangent().items()) == sorted(_reference_tangent(cand).items())
            # _derived_quiver builds a valid split without checking it
            cand.split.validate(cand.quiver)
            at_zero += zero_sigma
            aligned += any(d.values()) and not zero_sigma
            paired += bool(dsplit.pairs) and not zero_sigma
            looped += bool(dsplit.loops) and not zero_sigma
    assert at_zero >= 40 and min(aligned, paired, looped) >= 150, (at_zero, aligned, paired, looped)


def test_derived_quivers_pass_public_validation():
    # _derived_quiver builds its Quiver without Quiver's checks; each one it
    # builds must pass them, with a split that validates against it
    cands = [c for _, problem_cands, _ in _block_view_problems() for c in problem_cands]
    for e in corpus().values():
        cands += fixed_components(e.quiver, e.split, e.dims, e.action, (0,) * e.action.rank)
    for c in cands:
        assert Quiver(c.quiver.nodes, c.quiver.arrows) == c.quiver
        c.split.validate(c.quiver)
    assert len(cands) > 1000 and sum(not any(c.sigma) for c in cands) > 40


def test_every_enumerated_candidate_is_self_dual():
    # fixed --format json writes self_dual true for every candidate on the
    # strength of fixed_components' refusals (its docstring)
    cands = [c for _, problem_cands, _ in _block_view_problems() for c in problem_cands]
    for e in corpus().values():
        cands += fixed_components(e.quiver, e.split, e.dims, e.action, (0,) * e.action.rank)
        cands += fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
    assert all(fixed_self_dual_check(c) for c in cands)
    assert len(cands) > 4800 and sum(not any(c.sigma) for c in cands) > 40


def test_framed2_derived_splits_are_valid():
    e = corpus()["framed2"]
    steps = (1, 2, 3, -1, -2, -3)
    count = 0
    for sigma in itertools.product(steps, repeat=e.action.rank):
        for cand in fixed_components(e.quiver, e.split, e.dims, e.action, sigma, e.window):
            cand.split.validate(cand.quiver)
            count += 1
    assert count >= 36, count


def test_nonzero_tangent_is_built_once_and_drops_only_zero():
    rng = random.Random(19)
    cands = []
    for name in ("jordan2", "a2sym", "loop2", "framed2"):
        e = corpus()[name]
        cands += fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
        cands += fixed_components(e.quiver, e.split, e.dims, e.action, (0,) * e.action.rank)
    while len(cands) < 600:
        q, split, dims, act, broken = _random_symmetric_problem(rng)
        if not broken:
            sigma = tuple(rng.choice((0, 1, -1, 2)) for _ in range(act.rank))
            cands += fixed_components(q, split, dims, act, sigma, (-1, 1) if act.rank == 1 else (0, 1))
    nonempty = 0
    for cand in cands:
        zero = (0,) * cand.action.rank
        first = cand.nonzero_tangent()
        assert cand.nonzero_tangent() is first
        assert sorted(first.items()) == sorted((ch, m) for ch, m in cand.tangent().items() if ch != zero)
        assert zero not in first and all(first.values())
        nonempty += bool(first)
    assert nonempty > 100 and any(not any(c.sigma) for c in cands)


def _reference_fixed_components(q, split, dims, act, sigma, window):
    """fixed_components as it was before the early drop, with its count of
    drops: every distinct grading is built into a candidate with its
    derived quiver, and one whose derived quiver has no arrow and no framing
    is dropped afterwards. Returns (candidate, derived fields) pairs. The
    zero cocharacter drops nothing and is handed to fixed_components."""
    if act.rank == 0 or not any(sigma):
        cands = fixed_components(q, split, dims, act, sigma, window)
        return [(c, (c.quiver, c.split, c.v, c.d, c.framing_slots)) for c in cands], 0
    lo, hi = window
    chars = list(itertools.product(range(lo, hi + 1), repeat=act.rank))
    components = torus._components_of(q)
    framed = [any(dims.d[n] > 0 for n in comp) for comp in components]

    def sort_key(ch):
        return (sum(s * c for s, c in zip(sigma, ch)), ch)

    options = [
        [Counter(c) for c in itertools.combinations_with_replacement(chars, dims.v[n])]
        for n in q.nodes
    ]
    resolved = torus._resolved(q, split, act)
    seen, out, dropped = set(), [], 0
    for assignment in itertools.product(*options):
        grading = {n: dict(c) for n, c in zip(q.nodes, assignment)}
        for comp, has_framing in zip(components, framed):
            occupied = [ch for n in comp for ch in grading[n]]
            if has_framing or not occupied:
                continue
            base = min(occupied, key=sort_key)
            for n in comp:
                grading[n] = {tuple(c - b for c, b in zip(ch, base)): m for ch, m in grading[n].items()}
        key = tuple((node_key(n), tuple(sorted(grading[n].items()))) for n in q.nodes)
        if key in seen:
            continue
        seen.add(key)
        derived = torus._derived_quiver(q, split, grading, *resolved)
        if derived[0].arrows or any(derived[3].values()):
            out.append((torus.FixedCandidate(q, split, dims, act, sigma, grading, resolved), derived))
        else:
            dropped += 1
    return out, dropped


def _assert_same_candidates(cands, expected):
    """cands equal the reference's candidates, and each derives the
    reference's derived fields when they are read."""
    assert cands == [c for c, _ in expected]
    assert [(c.quiver, c.split, c.v, c.d, c.framing_slots) for c in cands] == [
        derived for _, derived in expected
    ]


def test_early_drop_matches_build_then_drop():
    dropped = 0
    for problem, cands, _ in _block_view_problems():
        expected, n = _reference_fixed_components(*problem)
        _assert_same_candidates(cands, expected)
        dropped += n
    assert dropped >= 100, dropped
    e = corpus()["framed2"]
    for width in (1, 2, 3):
        args = (e.quiver, e.split, e.dims, e.action, e.sigma, (-width, width))
        expected, n = _reference_fixed_components(*args)
        _assert_same_candidates(fixed_components(*args), expected)
        if width == 1:
            # the default window: 81 candidates built to keep 17
            assert (len(expected), n) == (17, 64)
