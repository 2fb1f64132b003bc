"""Torus actions on framed representation spaces and their fixed loci.

Characters are integer tuples of length rank. Paired arrows carry opposite
characters, loops carry zero, and every framing slot carries its own
character acting with + on the A column and - on the B row.

Fixed-component candidates are combinatorial: a grading of every gauge
space V_n by characters. The grading cuts the representation space and the
gauge algebra into graded blocks Hom(V_{tail,w1}, V_{head,w2}) x ch of
character ch + w1 - w2, with the framing space W a weight-0 node: arrow a
gives ch(a), a framing slot's A column W -> V_n gives its character and its
B row V_n -> W the negated one, and the adjoint V_n -> V_n gives zero. The
tangent is the signed sum of all blocks; the derived quiver is their
zero-character part. Whether a candidate is actually nonempty as a moduli
space is not decided here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import add, sub

from .quiver import Arrow, ArrowSplit, DimData, Quiver, node_key

Char = tuple  # tuple of ints, length = rank

MAX_FIXED_GRADINGS = 20_000


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
        if not (type(self.rank) is int and self.rank >= 0):
            raise ValueError(f"action rank needs a nonnegative integer, got {self.rank!r}")

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


def self_dual_check(q: Quiver, split: ArrowSplit, dims: DimData, act: TorusAction) -> bool:
    """Arrow characters closed under negation plus block transpose.

    Each arrow block with v_tail * v_head > 0 counts (character, tail, head)
    that many times; the count must equal its image under
    (ch, t, h) -> (-ch, h, t). Only the arrow blocks carry a condition:
    every framing slot's A column carries its character and its B row the
    negated one at the same node, so the framing part Hom(W,V) + Hom(V,W)
    is self-dual by construction.
    """
    act.validate(q, split, dims)
    return _arrows_self_dual(q, dims.v, _resolved(q, split, act)[0])


def _arrows_self_dual(q: Quiver, v: dict, chars: dict) -> bool:
    """The arrow-block count of self_dual_check, with each arrow's character
    read from chars."""
    bag = Counter()
    for ar in q.arrows:
        m = v[ar.tail] * v[ar.head]
        if m:
            bag[(chars[ar.id], ar.tail, ar.head)] += m
    return bag == Counter({(char_neg(ch), h, t): m for (ch, t, h), m in bag.items()})


def _resolved(q: Quiver, split: ArrowSplit, act: TorusAction) -> tuple[dict, dict]:
    """Each arrow's character and each node's framing characters, resolved
    once: arrow id -> Char and node -> tuple of Chars."""
    return (
        {ar.id: act.char(ar.id, split) for ar in q.arrows},
        {n: act.framing(n) for n in q.nodes},
    )


# ---------------------------------------------------------------------------
# Fixed-component candidates

@dataclass
class FixedCandidate:
    """Character grading of the gauge spaces plus the derived quiver.

    The derived quiver and its data (quiver, split, v, d, framing_slots)
    and the tangent are a function of the base, the grading and the
    characters its graded blocks carry (block_chars), so they are derived
    the first time one of them is read and take no part in equality or repr.
    The candidate keeps no pairing with a point: a chamber and a face keep
    each character's pairing with their own point (envelopes).
    """

    base: Quiver
    base_split: ArrowSplit
    base_dims: DimData
    action: TorusAction
    sigma: tuple
    grading: dict          # node -> {Char: dim}
    # the action's arrow and framing characters, resolved once per
    # enumeration (_resolved); read by block_chars at a nonzero cocharacter
    # and by the induced action
    resolved: tuple = field(repr=False, compare=False)
    _tangent: Counter | None = field(default=None, init=False, repr=False, compare=False)
    _nonzero: Counter | None = field(default=None, init=False, repr=False, compare=False)
    # _derived_quiver's (quiver, split, v, d, framing_slots)
    _derived: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def block_chars(self) -> tuple[dict, dict]:
        """The (arrow, framing) characters the graded blocks carry: resolved
        at a nonzero cocharacter; at zero, whose candidate is the input
        relabelled, every character zero, with d_n framing slots per node."""
        if any(self.sigma):
            return self.resolved
        zero = zero_char(self.action.rank)
        arrows = {ar.id: zero for ar in self.base.arrows}
        return arrows, {n: (zero,) * self.base_dims.d[n] for n in self.base.nodes}

    def _derive(self) -> tuple:
        if self._derived is None:
            chars, framing = self.block_chars()
            self._derived = _derived_quiver(self.base, self.base_split, self.grading, chars, framing)
        return self._derived

    @property
    def quiver(self) -> Quiver:
        """The derived quiver on occupied (node, char) pairs."""
        return self._derive()[0]

    @property
    def split(self) -> ArrowSplit:
        return self._derive()[1]

    @property
    def v(self) -> dict:
        return self._derive()[2]

    @property
    def d(self) -> dict:
        return self._derive()[3]

    @property
    def framing_slots(self) -> dict:
        """(node, char) -> tuple of aligned slot indices."""
        return self._derive()[4]

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
        """dim F: the tangent's zero-character multiplicity. The
        zero-character blocks are exactly the derived quiver (module
        docstring), so this is its dim R - dim G."""
        return self.tangent().get(zero_char(self.action.rank), 0)

    def tangent(self) -> Counter:
        """Virtual character multiset of the ambient tangent space.

        One signed sum over the graded blocks (module docstring): arrow and
        framing blocks count +1, the adjoint blocks V_n -> V_n count -1.
        The zero character survives with net multiplicity equal to the
        dimension of the candidate itself, when that is nonzero; no
        character is kept with multiplicity zero. At the zero cocharacter
        every block carries zero (block_chars): dim X at character zero.
        """
        if self._tangent is not None:
            return self._tangent
        g, zero = self.grading, zero_char(self.action.rank)
        chars, framing = self.block_chars()
        frame = {zero: 1}  # the framing space W as a weight-0 node
        blocks = [(chars[ar.id], 1, g[ar.tail], g[ar.head]) for ar in self.base.arrows]
        for n in self.base.nodes:
            blocks.append((zero, -1, g[n], g[n]))
            for ch in framing[n]:
                blocks += [(ch, 1, frame, g[n]), (char_neg(ch), 1, g[n], frame)]
        bag: dict = {}  # a dict, not a Counter: no __missing__ call per new key
        for ch, sign, source, target in blocks:
            for w1, m1 in source.items():
                # ch + w1 - w2, with ch + w1 formed once per source weight
                shifted, m1 = tuple(map(add, ch, w1)), sign * m1
                for w2, m2 in target.items():
                    key = tuple(map(sub, shifted, w2))
                    bag[key] = bag.get(key, 0) + m1 * m2
        self._tangent = Counter({ch: m for ch, m in bag.items() if m})
        return self._tangent

    def nonzero_tangent(self) -> Counter:
        """The tangent characters other than zero, built once; callers only
        read it."""
        if self._nonzero is None:
            zero = zero_char(self.action.rank)
            self._nonzero = Counter({ch: m for ch, m in self.tangent().items() if ch != zero})
        return self._nonzero


def _derived_quiver(q, split, grading, chars, framing):
    """The zero-character blocks of a grading, as FixedCandidate's
    quiver, split, v, d, framing_slots in order: a copy (a, w) of each arrow
    whose head weight w + ch(a) is occupied, and at each occupied (n, w) the
    framing slots of character w. chars and framing map each arrow and node
    to its characters, as _resolved gives them."""
    weights = {n: sorted(grading[n]) for n in q.nodes}
    v = {(n, w): grading[n][w] for n in q.nodes for w in weights[n]}
    copies = {}  # arrow id -> {tail weight: head weight} of its copies
    for ar in q.arrows:
        ch, head = chars[ar.id], grading[ar.head]
        shifted = ((w, tuple(map(add, w, ch))) for w in weights[ar.tail])
        copies[ar.id] = {w: h for w, h in shifted if h in head}
    arrows = [Arrow((ar.id, w), (ar.tail, w), (ar.head, h))
              for ar in q.arrows for w, h in copies[ar.id].items()]
    # a* carries -ch(a) (fixed_components refuses anything else, and the
    # zero cocharacter is derived with every character zero), so every copy's
    # partner exists; a loop carries zero, so it has a copy at every weight
    pairs = [((a, w), (b, h)) for a, b in split.pairs for w, h in copies[a].items()]
    loops = [(l, w) for l in split.loops for w in copies[l]]
    framing_slots = {
        (n, w): tuple(s for s, ch in enumerate(framing[n]) if ch == w) for n, w in v
    }
    d = {nd: len(slots) for nd, slots in framing_slots.items()}
    quiver = Quiver._trusted(tuple(v), tuple(arrows))
    return quiver, ArrowSplit(tuple(pairs), tuple(loops)), v, d, framing_slots


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

    The zero cocharacter yields exactly one candidate, the input itself,
    whose graded blocks all carry the zero character (a relabelling;
    FixedCandidate.block_chars). Any nonzero sigma gives the
    same T-fixed candidates, graded by characters of the whole torus; they
    are the components of X^sigma only when sigma lies off every wall.
    Gradings run over characters with each coordinate inside the window
    (default: max gauge dimension on both sides). Unframed connected
    components are normalized by shifting their smallest occupied character
    in sigma's order, sigma's only other use, to zero, merging gradings
    that induce the same action; a grading whose graded representation space
    and framing both vanish is dropped before its candidate is built. An
    invalid or non-self-dual action, paired arrows without opposite
    characters at a nonzero cocharacter, and a window with more than
    MAX_FIXED_GRADINGS gradings are refused up front.

    So every candidate returned passes fixed_self_dual_check. At a nonzero
    sigma, the copy (a, w) of a paired arrow runs from (tail, w) to
    (head, w + ch) and carries ch; a* carries -ch, so its copy at
    (head, w + ch) runs back to (tail, w) and carries -ch, the transposed
    block with the negated character; a loop's copies carry zero from a
    weight to itself. At sigma = 0 the candidate is the input relabelled,
    its copies carry the base characters, and the base passed the
    self-duality check before the candidate was built.
    """
    act.validate(q, split, dims)
    sigma = tuple(sigma)
    if len(sigma) != act.rank:
        raise ValueError("cocharacter has wrong rank")
    resolved = chars, framing = _resolved(q, split, act)
    if not any(sigma):
        # the zero cocharacter pairs no arrow copies, so swapped pairs pass
        if not _arrows_self_dual(q, dims.v, chars):
            raise ValueError("action is not self-dual")
        grading = {n: {zero_char(act.rank): dims.v[n]} for n in q.nodes}
        return [FixedCandidate(q, split, dims, act, sigma, grading, resolved)]
    # the derived quiver pairs the copies of a and a* only when their
    # characters are opposite; loops carry zero, so the action is self-dual
    for a_id, astar_id in split.pairs:
        ch, ch_star = chars[a_id], chars[astar_id]
        if ch_star != char_neg(ch):
            raise ValueError(
                f"paired arrows {a_id!r} and {astar_id!r} need opposite characters, "
                f"got {list(ch)} and {list(ch_star)}"
            )
    vmax = max((dims.v[n] for n in q.nodes), default=1)
    lo, hi = window if window is not None else (-vmax, vmax)
    if lo > hi:
        raise ValueError("empty weight window")
    # count before building: the window's characters grow as its width**rank.
    # Node n has C(count + v_n - 1, v_n) gradings; the product grows one
    # binomial factor at a time, at least doubling, so a partial product
    # over the budget stops a huge v or window after a few steps
    count = (hi - lo + 1) ** act.rank
    gradings = 1
    for n in q.nodes:
        k = min(dims.v[n], count - 1)
        for i in range(1, k + 1):
            gradings = gradings * (count + dims.v[n] - 1 - k + i) // i
            if gradings > MAX_FIXED_GRADINGS:
                raise ValueError(
                    f"the weight window gives at least {gradings} gradings, over the "
                    f"enumeration budget of {MAX_FIXED_GRADINGS}"
                )
    # with every v_n zero any window is in budget, and no grading reads it
    window_chars = []
    if any(dims.v[n] for n in q.nodes):
        window_chars = list(itertools.product(range(lo, hi + 1), repeat=act.rank))

    # the unframed components, whose gradings are normalized by a shift
    shiftable = [comp for comp in _components_of(q) if not any(dims.d[n] > 0 for n in comp)]

    def sort_key(ch: Char):
        return (sum(s * c for s, c in zip(sigma, ch)), ch)

    per_node_options = [
        [Counter(c) for c in itertools.combinations_with_replacement(window_chars, dims.v[n])]
        for n in q.nodes
    ]
    arrow_ends = [(ar.tail, ar.head, chars[ar.id]) for ar in q.arrows]
    framed_at = [(n, set(framing[n])) for n in q.nodes if framing[n]]

    seen = set()
    out = []
    for assignment in itertools.product(*per_node_options):
        grading = {n: dict(c) for n, c in zip(q.nodes, assignment)}
        for comp in shiftable:
            occupied = [ch for n in comp for ch in grading[n]]
            if not occupied:
                continue
            base = min(occupied, key=sort_key)
            if any(base):
                for n in comp:
                    grading[n] = {
                        tuple(map(sub, ch, base)): m for ch, m in grading[n].items()
                    }
        key = tuple(tuple(sorted(grading[n].items())) for n in q.nodes)  # one node order
        if key in seen:
            continue
        seen.add(key)
        # every derived node has positive dimension, so the graded space
        # vanishes exactly when no framing slot and no arrow copy survives;
        # such a grading is dropped before its candidate is built
        if any(not slots.isdisjoint(grading[n]) for n, slots in framed_at) or any(
            tuple(map(add, w, ch)) in grading[head]
            for tail, head, ch in arrow_ends
            for w in grading[tail]
        ):
            out.append(FixedCandidate(q, split, dims, act, sigma, grading, resolved))
    return out


def fixed_self_dual_check(cand: FixedCandidate) -> bool:
    """Self-duality of the induced action on the derived quiver: one
    self_dual_check, of induced_action(cand)."""
    return self_dual_check(cand.quiver, cand.split, DimData(cand.v, cand.d), induced_action(cand))


def induced_action(cand: FixedCandidate) -> TorusAction:
    """Action on the derived quiver: arrow copies inherit the base
    characters of the arrows they copy, aligned framing slots keep theirs."""
    chars, framing = cand.resolved
    arrow_chars = {copy.id: chars[copy.id[0]] for copy in cand.quiver.arrows}
    framing_chars = {
        nd: tuple(framing[nd[0]][s] for s in cand.framing_slots[nd]) for nd in cand.quiver.nodes
    }
    return TorusAction(cand.action.rank, arrow_chars, framing_chars)
