"""Quiver surgeries: loop addition/removal, leg replacement, framing absorption.

All constructions are deterministic: new arrow and node identifiers derive
from the identifiers they replace, so repeated runs produce byte-identical
serializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import frac
from .quiver import Arrow, ArrowSplit, DimData, NodeId, Quiver, node_key

MAX_LEG_NODES = 10_000


def added_loop_id(node: NodeId, q: Quiver) -> str:
    """Fresh loop identifier for a node.

    Prime-suffixed when the plain name would clash with an existing arrow
    or when the quiver already holds leg nodes derived from that name, as
    happens when the surgery is iterated on its own output.
    """
    candidate = f"loop:{node_key(node)}"
    arrow_ids = {a.id for a in q.arrows}
    leg_stems = {n[0] for n in q.nodes if isinstance(n, tuple) and len(n) == 2}
    while candidate in arrow_ids or candidate in leg_stems:
        candidate += "'"
    return candidate


def leg_arrow_c(loop_id, k: int) -> str:
    # C_k maps the dimension-k space one step toward the original node
    return f"{loop_id}:C{k}"


def leg_arrow_d(loop_id, k: int) -> str:
    return f"{loop_id}:D{k}"


def build_add(q: Quiver, split: ArrowSplit) -> tuple[Quiver, ArrowSplit]:
    """Add one loop at every node; the new loops join the loop set."""
    new_loops = tuple(Arrow(added_loop_id(n, q), n, n) for n in q.nodes)
    quiver = Quiver(q.nodes, q.arrows + new_loops)
    out = ArrowSplit(split.pairs, split.loops + tuple(a.id for a in new_loops))
    out.validate(quiver)
    return quiver, out


def build_rem(q: Quiver, split: ArrowSplit) -> tuple[Quiver, ArrowSplit]:
    """Drop every loop, keeping only the doubled pairs."""
    keep = {a for p in split.pairs for a in p}
    quiver = Quiver(q.nodes, tuple(a for a in q.arrows if a.id in keep))
    return quiver, ArrowSplit(split.pairs, ())


@dataclass
class AuxResult:
    """Auxiliary quiver: every loop of the loop-augmented quiver replaced by
    a doubled A_{n-1} leg (n = gauge dimension at the loop's node)."""

    quiver: Quiver
    split: ArrowSplit
    v: dict
    d: dict
    leg_index: dict  # loop id -> tuple of added leg nodes, depth 1..n-1
    new_node_total: int  # sum of gauge dimensions over added nodes
    base_quiver: Quiver
    base_split: ArrowSplit
    add_quiver: Quiver
    add_split: ArrowSplit

    def loop_node(self, loop_id) -> NodeId:
        return self.add_quiver.arrow(loop_id).head

    def base_dims(self) -> DimData:
        nodes = self.base_quiver.nodes
        return DimData({n: self.v[n] for n in nodes}, {n: self.d[n] for n in nodes})


def _require_gauge(q: Quiver, dims: DimData):
    """dims.validate, then refuse a node of gauge dimension 0: no leg fits it."""
    dims.validate(q)
    for node in q.nodes:
        if dims.v[node] == 0:
            raise ValueError(
                f"gauge dimension 0 at node {node!r}; drop the node before building legs"
            )


def build_aux(q: Quiver, split: ArrowSplit, dims: DimData) -> AuxResult:
    """Replace each loop of Q^add by a doubled A_{n-1} leg.

    Nodes with gauge dimension 1 get an empty leg (the loop disappears and
    no nodes are added). Framing extends by zero on the new nodes. Legs that
    would add more than MAX_LEG_NODES nodes are refused up front.
    """
    _require_gauge(q, dims)
    add_q, add_split = build_add(q, split)
    by_id = {a.id: a for a in add_q.arrows}
    loop_nodes = {loop_id: by_id[loop_id].head for loop_id in add_split.loops}
    count = sum(dims.v[base] - 1 for base in loop_nodes.values())
    if count > MAX_LEG_NODES:
        raise ValueError(
            f"the legs would add {count} nodes, over the budget of {MAX_LEG_NODES}"
        )

    nodes = list(q.nodes)
    arrows = [by_id[a] for p in add_split.pairs for a in p]
    pairs = list(add_split.pairs)
    v = dict(dims.v)
    d = dict(dims.d)
    leg_index: dict = {}
    total_new = 0

    taken = set(nodes)
    for loop_id, base in loop_nodes.items():
        n = dims.v[base]
        chain = []
        for depth in range(1, n):
            ln = (loop_id, depth)  # gauge dimension n - depth
            if ln in taken:
                raise ValueError(f"leg node {ln!r} collides with an existing node")
            taken.add(ln)
            nodes.append(ln)
            chain.append(ln)
            v[ln] = n - depth
            d[ln] = 0
            total_new += n - depth
        leg_index[loop_id] = tuple(chain)
        # C_k: dimension k -> k+1, pointing toward the original node
        for k in range(1, n):
            src = chain[n - k - 1]  # depth n-k, dimension k
            dst = base if k == n - 1 else chain[n - k - 2]
            c = Arrow(leg_arrow_c(loop_id, k), src, dst)
            dd = Arrow(leg_arrow_d(loop_id, k), dst, src)
            arrows.extend([c, dd])
            pairs.append((c.id, dd.id))

    quiver = Quiver(tuple(nodes), tuple(arrows))
    out_split = ArrowSplit(tuple(pairs), ())
    out_split.validate(quiver)
    return AuxResult(
        quiver=quiver,
        split=out_split,
        v=v,
        d=d,
        leg_index=leg_index,
        new_node_total=total_new,
        base_quiver=q,
        base_split=split,
        add_quiver=add_q,
        add_split=add_split,
    )


CB_NODE = "inf"


@dataclass
class CBResult:
    """Framing absorbed into one extra dimension-1 node."""

    quiver: Quiver
    split: ArrowSplit
    v: dict
    theta: dict


def crawley_boevey(q: Quiver, split: ArrowSplit, dims: DimData) -> CBResult:
    """Add a node 'inf' with v=1 and d_i arrow pairs between inf and i.

    The stability value at the new node is -sum(theta_i * v_i), which keeps
    the total pairing with the dimension vector at zero.
    """
    dims.validate(q, need_theta=True)
    if CB_NODE in q.nodes:
        raise ValueError(f"node {CB_NODE!r} already present")
    nodes = tuple(q.nodes) + (CB_NODE,)
    arrows = list(q.arrows)
    pairs = list(split.pairs)
    for node in q.nodes:
        for k in range(dims.d[node]):
            out = Arrow(f"cb:{node_key(node)}:{k}:out", CB_NODE, node)
            back = Arrow(f"cb:{node_key(node)}:{k}:in", node, CB_NODE)
            arrows.extend([out, back])
            pairs.append((out.id, back.id))
    v = dict(dims.v)
    v[CB_NODE] = 1
    theta = dict(dims.theta)
    theta[CB_NODE] = -sum(
        (dims.theta[n] * dims.v[n] for n in q.nodes), Fraction(0)
    )
    quiver = Quiver(nodes, tuple(arrows))
    out_split = ArrowSplit(tuple(pairs), split.loops)
    out_split.validate(quiver)
    return CBResult(quiver, out_split, v, theta)


def default_delta(aux: AuxResult) -> Fraction:
    """1/(4S) keeps delta * S strictly inside the 1/2 bound; S=0 legs free."""
    s = aux.new_node_total
    return Fraction(1) if s == 0 else Fraction(1, 4 * s)


def lift_stability(xi, aux: AuxResult, delta=None) -> tuple[dict, Fraction]:
    """Extend a stability condition on the base nodes by delta on leg nodes.

    Rejects delta outside (0, ...) or violating delta * S < 1/2 where S is
    the total added gauge dimension. xi and delta are read as exact
    rationals (exactlinalg.frac), so a float or a bool is refused.
    """
    delta = default_delta(aux) if delta is None else frac(delta)
    s = aux.new_node_total
    if delta <= 0:
        raise ValueError("delta must be positive")
    if s and delta * s >= Fraction(1, 2):
        raise ValueError(
            f"delta={delta} violates the bound: delta * {s} = {delta * s} >= 1/2"
        )
    lifted = {}
    base_nodes = set(aux.base_quiver.nodes)
    for node in aux.quiver.nodes:
        lifted[node] = frac(xi[node]) if node in base_nodes else delta
    return lifted, delta


def half_quiver(aux: AuxResult) -> tuple[Quiver, DimData]:
    """One arrow per doubled pair (the unstarred side), in-framing only."""
    keep = {a for a, _ in aux.split.pairs}
    quiver = Quiver(aux.quiver.nodes, tuple(a for a in aux.quiver.arrows if a.id in keep))
    return quiver, DimData(aux.v, aux.d)


def dim_quiver_variety(q: Quiver, dims: DimData) -> int:
    """dim R - dim G for the symmetrically framed representation space."""
    v, d = dims.v, dims.d
    arrows = sum(v[a.tail] * v[a.head] for a in q.arrows)
    framing = 2 * sum(d[n] * v[n] for n in q.nodes)
    gauge = sum(v[n] ** 2 for n in q.nodes)
    return arrows + framing - gauge


def dim_universal_nakajima(q_half: Quiver, dims: DimData) -> int:
    """Dimension of the universally deformed doubled-quiver variety.

    Input is the half quiver with in-framing only; the doubling and the
    base of deformations contribute 2*dim M - 2*dim G + #nodes.
    """
    v, d = dims.v, dims.d
    dim_m = sum(v[a.tail] * v[a.head] for a in q_half.arrows) + sum(
        d[n] * v[n] for n in q_half.nodes
    )
    dim_g = sum(v[n] ** 2 for n in q_half.nodes)
    return 2 * dim_m - 2 * dim_g + len(q_half.nodes)


@dataclass
class HGammaData:
    dim_h: int
    gamma_factors: tuple[int, ...]  # symmetric group sizes, one per loop of Q^add
    dim_l: int


def hgamma_data(q: Quiver, split: ArrowSplit, dims: DimData) -> HGammaData:
    """Sizes of the base of the simultaneous leg deformation.

    One factor per loop of the loop-augmented quiver: a coordinate block of
    size v at the loop's node, permuted by the symmetric group S_v. The
    leftover linear directions count the original loops.
    """
    _require_gauge(q, dims)
    factors = [dims.v[q.arrow(l).head] for l in split.loops]
    factors += [dims.v[n] for n in q.nodes]
    return HGammaData(
        dim_h=sum(factors),
        gamma_factors=tuple(factors),
        dim_l=len(split.loops),
    )
