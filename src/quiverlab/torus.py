"""Torus actions on framed representation spaces and their fixed loci.

Characters are integer tuples of length rank. Paired arrows carry opposite
characters, loops carry zero, and every framing slot carries its own
character acting with + on the A column and - on the B row.

Fixed-component candidates are combinatorial: a grading of every gauge
space by characters. The derived quiver keeps an arrow copy wherever a
block of the representation space has character zero after twisting by the
grading, so a cocharacter pairing recovers the integer-weight picture.
Whether a candidate is actually nonempty as a moduli space is not decided
here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from .quiver import Arrow, ArrowSplit, DimData, Quiver, node_key
from .surgery import dim_quiver_variety

Char = tuple  # tuple of ints, length = rank

MAX_FIXED_GRADINGS = 20_000


def char_add(a: Char, b: Char) -> Char:
    return tuple(x + y for x, y in zip(a, b))


def char_sub(a: Char, b: Char) -> Char:
    return tuple(x - y for x, y in zip(a, b))


def char_neg(a: Char) -> Char:
    return tuple(-x for x in a)


def zero_char(rank: int) -> Char:
    return (0,) * rank


@dataclass
class TorusAction:
    """Linear torus action data for a split symmetric quiver."""

    rank: int
    arrow_chars: dict      # arrow id -> Char; star side derivable
    framing_chars: dict    # node -> tuple of Chars, one per framing slot

    def validate(self, q: Quiver, split: ArrowSplit, dims: DimData):
        def check(ch, where: str):
            if len(ch) != self.rank:
                raise ValueError(f"{where} has wrong rank")
            if not all(type(c) is int for c in ch):
                raise ValueError(f"{where} needs integer entries, got {list(ch)}")

        for aid, ch in self.arrow_chars.items():
            q.arrow(aid)
            check(ch, f"character on {aid!r}")
            if split.is_loop(aid) and any(ch):
                raise ValueError(f"loop {aid!r} must carry the zero character")
        for n in q.nodes:
            chars = self.framing_chars.get(n, ())
            if len(chars) != dims.d[n]:
                raise ValueError(f"node {n!r} needs {dims.d[n]} framing characters")
            for ch in chars:
                check(ch, f"framing character at {n!r}")

    def char(self, aid, split: ArrowSplit) -> Char:
        if aid in self.arrow_chars:
            return tuple(self.arrow_chars[aid])
        if split.is_loop(aid):
            return zero_char(self.rank)
        star = split.star(aid)
        if star in self.arrow_chars:
            return char_neg(self.arrow_chars[star])
        return zero_char(self.rank)

    def framing(self, node) -> tuple:
        return tuple(tuple(c) for c in self.framing_chars.get(node, ()))


@dataclass(frozen=True)
class WeightEntry:
    char: Char
    kind: str       # "arrow", "A", "B"
    where: tuple    # arrow: (id, tail, head); framing: (node, slot)
    mult: int


def action_weights(q: Quiver, split: ArrowSplit, dims: DimData, act: TorusAction) -> list:
    """Character multiset of the representation space, block by block."""
    act.validate(q, split, dims)
    entries = []
    for ar in q.arrows:
        ch = act.char(ar.id, split)
        m = dims.v[ar.tail] * dims.v[ar.head]
        if m:
            entries.append(WeightEntry(ch, "arrow", (ar.id, ar.tail, ar.head), m))
    for n in q.nodes:
        for slot, ch in enumerate(act.framing(n)):
            if dims.v[n]:
                entries.append(WeightEntry(ch, "A", (n, slot), dims.v[n]))
                entries.append(WeightEntry(char_neg(ch), "B", (n, slot), dims.v[n]))
    return entries


def self_dual_check(q: Quiver, split: ArrowSplit, dims: DimData, act: TorusAction) -> bool:
    """Arrow characters closed under negation plus block transpose.

    Only the arrow blocks carry a condition: every framing slot's A column
    carries its character and its B row the negated one at the same node,
    so the framing part Hom(W,V) + Hom(V,W) is self-dual by construction.
    """
    bag = Counter()
    for e in action_weights(q, split, dims, act):
        if e.kind == "arrow":
            _, t, h = e.where
            bag[(e.char, t, h)] += e.mult
    return bag == Counter({(char_neg(ch), h, t): m for (ch, t, h), m in bag.items()})


# ---------------------------------------------------------------------------
# Fixed-component candidates

@dataclass
class FixedCandidate:
    """Character grading of the gauge spaces plus the derived quiver."""

    base: Quiver
    base_split: ArrowSplit
    base_dims: DimData
    action: TorusAction
    sigma: tuple
    grading: dict          # node -> {Char: dim}
    quiver: Quiver         # derived quiver on occupied (node, char) pairs
    split: ArrowSplit
    v: dict
    d: dict
    framing_slots: dict    # (node, char) -> tuple of aligned slot indices
    trivial: bool = False
    _tangent: Counter | None = field(default=None, repr=False)

    def name(self) -> str:
        parts = []
        for n in self.base.nodes:
            graded = ",".join(
                f"{'+'.join(map(str, ch)) if ch else '*'}x{m}"
                for ch, m in sorted(self.grading[n].items())
            )
            parts.append(f"{node_key(n)}[{graded}]")
        return " ".join(parts)

    def dim_fixed(self) -> int:
        return dim_quiver_variety(self.quiver, DimData(self.v, self.d))

    def tangent(self) -> Counter:
        """Virtual character multiset of the ambient tangent space.

        Representation blocks count positively, adjoint blocks negatively;
        the zero character survives with net multiplicity equal to the
        dimension of the candidate itself.
        """
        if self._tangent is not None:
            return self._tangent
        rank = self.action.rank
        bag: Counter = Counter()
        if self.trivial:
            bag[zero_char(rank)] = dim_quiver_variety(self.base, self.base_dims)
            self._tangent = bag
            return bag
        for ar in self.base.arrows:
            ch = self.action.char(ar.id, self.base_split)
            for w1, m1 in self.grading[ar.tail].items():
                for w2, m2 in self.grading[ar.head].items():
                    bag[char_add(ch, char_sub(w1, w2))] += m1 * m2
        for n in self.base.nodes:
            for ch in self.action.framing(n):
                for w, m in self.grading[n].items():
                    bag[char_sub(ch, w)] += m      # A column
                    bag[char_sub(w, ch)] += m      # B row
        for n in self.base.nodes:
            for w1, m1 in self.grading[n].items():
                for w2, m2 in self.grading[n].items():
                    bag[char_sub(w1, w2)] -= m1 * m2
        bag = Counter({ch: m for ch, m in bag.items() if m != 0})
        self._tangent = bag
        return bag

    def nonzero_tangent(self) -> Counter:
        rank = self.action.rank
        return Counter(
            {ch: m for ch, m in self.tangent().items() if ch != zero_char(rank)}
        )


def _derived_quiver(q, split, dims, act, grading):
    nodes = []
    v = {}
    for n in q.nodes:
        for ch, m in sorted(grading[n].items()):
            nodes.append((n, ch))
            v[(n, ch)] = m
    node_set = set(nodes)
    arrows = []
    pairs = []
    loops = []
    arrow_of = {}
    for ar in q.arrows:
        ch = act.char(ar.id, split)
        for w, _ in sorted(grading[ar.tail].items()):
            src = (ar.tail, w)
            dst = (ar.head, char_add(w, ch))
            if src in node_set and dst in node_set:
                copy = Arrow((ar.id, w), src, dst)
                arrows.append(copy)
                arrow_of[(ar.id, w)] = copy
    for a_id, astar_id in split.pairs:
        ar = q.arrow(a_id)
        ch = act.char(a_id, split)
        for w, _ in sorted(grading[ar.tail].items()):
            if (a_id, w) in arrow_of:
                partner = (astar_id, char_add(w, ch))
                if partner in arrow_of:
                    pairs.append(((a_id, w), partner))
    for l_id in split.loops:
        node = q.arrow(l_id).head
        for w, _ in sorted(grading[node].items()):
            if (l_id, w) in arrow_of:
                loops.append((l_id, w))
    d = {}
    framing_slots = {}
    for n in q.nodes:
        for w, _ in grading[n].items():
            aligned = tuple(
                slot for slot, ch in enumerate(act.framing(n)) if tuple(ch) == w
            )
            d[(n, w)] = len(aligned)
            framing_slots[(n, w)] = aligned
    quiver = Quiver(tuple(nodes), tuple(arrows))
    dsplit = ArrowSplit(tuple(pairs), tuple(loops))
    dsplit.validate(quiver)
    return quiver, dsplit, v, d, framing_slots


def _candidate(q, split, dims, act, sigma, grading, trivial=False) -> FixedCandidate:
    # the trivial candidate derives its quiver with every character zero,
    # which relabels the input, but keeps the real action for its tangent
    derive = act
    if trivial:
        zero = zero_char(act.rank)
        derive = TorusAction(act.rank, {}, {n: (zero,) * dims.d[n] for n in q.nodes})
    # _derived_quiver returns the fields quiver, split, v, d, framing_slots in order
    derived = _derived_quiver(q, split, dims, derive, grading)
    return FixedCandidate(q, split, dims, act, sigma, grading, *derived, trivial=trivial)


def _components_of(q: Quiver) -> list[set]:
    """Connected components of the underlying undirected graph."""
    parent = {n: n for n in q.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in q.arrows:
        ra, rb = find(a.tail), find(a.head)
        if ra != rb:
            parent[ra] = rb
    comps: dict = {}
    for n in q.nodes:
        comps.setdefault(find(n), set()).add(n)
    return list(comps.values())


def fixed_components(
    q: Quiver,
    split: ArrowSplit,
    dims: DimData,
    act: TorusAction,
    sigma,
    window: tuple[int, int] | None = None,
) -> list[FixedCandidate]:
    """Enumerate fixed-component candidates for a cocharacter.

    The zero cocharacter yields exactly one candidate, the input itself.
    Otherwise gradings run over characters with each coordinate inside the
    window (default: max gauge dimension on both sides). Unframed connected
    components are normalized by shifting their smallest occupied character
    to zero, merging gradings that induce the same action; candidates whose
    graded representation space and framing both vanish are dropped. An
    action whose paired arrows do not carry opposite characters, and a
    window with more than MAX_FIXED_GRADINGS gradings, are refused up front.
    """
    if not self_dual_check(q, split, dims, act):
        raise ValueError("action is not self-dual")
    sigma = tuple(sigma)
    if len(sigma) != act.rank:
        raise ValueError("cocharacter has wrong rank")
    if act.rank == 0 or not any(sigma):
        zero = zero_char(act.rank)
        grading = {n: {zero: dims.v[n]} for n in q.nodes}
        return [_candidate(q, split, dims, act, sigma, grading, trivial=True)]
    # self-duality alone admits a pair whose partners carry the characters
    # of another pair; the derived quiver could not pair their copies
    for a_id, astar_id in split.pairs:
        ch, ch_star = act.char(a_id, split), act.char(astar_id, split)
        if ch_star != char_neg(ch):
            raise ValueError(
                f"paired arrows {a_id!r} and {astar_id!r} need opposite characters, "
                f"got {list(ch)} and {list(ch_star)}"
            )
    if window is None:
        vmax = max(dims.v[n] for n in q.nodes) if q.nodes else 1
        window = (-vmax, vmax)
    lo, hi = window
    if lo > hi:
        raise ValueError("empty weight window")
    chars = [tuple(c) for c in itertools.product(range(lo, hi + 1), repeat=act.rank)]
    gradings = math.prod(math.comb(len(chars) + dims.v[n] - 1, dims.v[n]) for n in q.nodes)
    if gradings > MAX_FIXED_GRADINGS:
        raise ValueError(
            f"the weight window gives {gradings} gradings, over the "
            f"enumeration budget of {MAX_FIXED_GRADINGS}"
        )

    components = _components_of(q)
    framed = [any(dims.d[n] > 0 for n in comp) for comp in components]

    def sort_key(ch: Char):
        return (sum(s * c for s, c in zip(sigma, ch)), ch)

    per_node_options = [
        [Counter(c) for c in itertools.combinations_with_replacement(chars, dims.v[n])]
        for n in q.nodes
    ]

    seen = set()
    out = []
    for assignment in itertools.product(*per_node_options):
        grading = {n: dict(c) for n, c in zip(q.nodes, assignment)}
        # normalize shiftable (unframed) components
        for comp, has_framing in zip(components, framed):
            if has_framing:
                continue
            occupied = [ch for n in comp for ch in grading[n]]
            if not occupied:
                continue
            base = min(occupied, key=sort_key)
            if any(base):
                for n in comp:
                    grading[n] = {
                        char_sub(ch, base): m for ch, m in grading[n].items()
                    }
        key = tuple(
            (node_key(n), tuple(sorted(grading[n].items()))) for n in q.nodes
        )
        if key in seen:
            continue
        seen.add(key)
        cand = _candidate(q, split, dims, act, sigma, grading)
        # every derived node has positive dimension, so the graded space
        # vanishes exactly when no arrow copy and no framing slot survives
        if cand.quiver.arrows or any(cand.d.values()):
            out.append(cand)
    return out


def fixed_self_dual_check(cand: FixedCandidate) -> bool:
    """Self-duality of the induced action on the derived quiver."""
    act = induced_action(cand)
    dims = DimData(cand.v, cand.d)
    return self_dual_check(cand.quiver, cand.split, dims, act)


def induced_action(cand: FixedCandidate) -> TorusAction:
    """Action on the derived quiver: arrow copies inherit their characters,
    aligned framing slots keep theirs."""
    arrow_chars = {}
    for copy in cand.quiver.arrows:
        base_aid = copy.id[0]
        arrow_chars[copy.id] = cand.action.char(base_aid, cand.base_split)
    framing_chars = {}
    for nd in cand.quiver.nodes:
        base_node = nd[0]
        slots = cand.framing_slots[nd]
        framing_chars[nd] = tuple(
            tuple(cand.action.framing(base_node)[s]) for s in slots
        )
    return TorusAction(cand.action.rank, arrow_chars, framing_chars)
