"""Exact rational quiver representations and the maps between them.

A representation stores one matrix per arrow plus framing blocks A (d -> v)
and B (v -> d) per node. Moment values live in one v x v block per node,
identifying the dual of the gauge Lie algebra with matrices through the
trace pairing.

Blocks are summed on integer numerators by exactlinalg._num_sum: each
term of a node's moment value (A B, X_a X_a* at heads, -X_a* X_a at
tails, loop values, t*id) is an integer product or block over its own
denominator, and the sum is brought to lowest terms once per node. The
resolved moment forms the base nodes' blocks only. A leg depth's scalar
is decided on the integer sum of its two products, and a flag check
builds each level's shifted map the same way and reads leg stability
off the flag bases it builds: every C is injective exactly when V_k has
n-k basis rows for every k. A flag check returns only its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exactlinalg import (
    Mat,
    _int_basis,
    _num_sum,
    _product_term,
    _reduce,
    _scalar_entry,
    _unit,
    charpoly,
    frac,
    rank,
)
from .quiver import ArrowSplit, DimData, Quiver
from .surgery import AuxResult, leg_arrow_c, leg_arrow_d


@dataclass
class Representation:
    x: dict  # arrow id -> Mat (v_head x v_tail)
    a: dict  # node -> Mat (v x d)
    b: dict  # node -> Mat (d x v)


def zero_representation(q: Quiver, dims: DimData) -> Representation:
    x = {ar.id: Mat.zero(dims.v[ar.head], dims.v[ar.tail]) for ar in q.arrows}
    a = {n: Mat.zero(dims.v[n], dims.d[n]) for n in q.nodes}
    b = {n: Mat.zero(dims.d[n], dims.v[n]) for n in q.nodes}
    return Representation(x, a, b)


def validate_shapes(q: Quiver, dims: DimData, rep: Representation):
    for ar in q.arrows:
        m = rep.x.get(ar.id)
        if m is None:
            raise ValueError(f"missing matrix for arrow {ar.id!r}")
        if (m.rows, m.cols) != (dims.v[ar.head], dims.v[ar.tail]):
            raise ValueError(
                f"arrow {ar.id!r}: expected {dims.v[ar.head]}x{dims.v[ar.tail]}, "
                f"got {m.rows}x{m.cols}"
            )
    for n in q.nodes:
        am, bm = rep.a.get(n), rep.b.get(n)
        if am is None or bm is None:
            raise ValueError(f"missing framing block at node {n!r}")
        if (am.rows, am.cols) != (dims.v[n], dims.d[n]):
            raise ValueError(f"A block at {n!r} has wrong shape")
        if (bm.rows, bm.cols) != (dims.d[n], dims.v[n]):
            raise ValueError(f"B block at {n!r} has wrong shape")


def _moment_blocks(q: Quiver, split: ArrowSplit, v: dict, rep: Representation, nodes) -> dict:
    """The moment values at the given nodes only, in their order; each one
    _num_sum of integer products."""
    terms = {n: [_product_term(1, rep.a[n], rep.b[n])] for n in nodes}
    for a_id, astar_id in split.pairs:
        ar = q.arrow(a_id)
        x, x_star = rep.x[a_id], rep.x[astar_id]
        if ar.head in terms:
            terms[ar.head].append(_product_term(1, x, x_star))
        if ar.tail in terms:
            terms[ar.tail].append(_product_term(-1, x_star, x))
    for l_id in split.loops:
        node = q.arrow(l_id).head
        if node in terms:
            m = rep.x[l_id]
            terms[node].append((1, m.num, m.den))
    return {n: Mat._from_ints(*_num_sum(ts, v[n]), v[n]) for n, ts in terms.items()}


def moment_map(q: Quiver, split: ArrowSplit, dims: DimData, rep: Representation) -> dict:
    """Per-node moment value.

    Doubled pairs contribute X_a X_a* at the head of a and -X_a* X_a at its
    tail, framing contributes A_i B_i, and loop arrows enter linearly.
    """
    validate_shapes(q, dims, rep)
    return _moment_blocks(q, split, dims.v, rep, q.nodes)


# ---------------------------------------------------------------------------
# Legs of the auxiliary quiver

def leg_chains(aux: AuxResult, rep: Representation, loop_id) -> tuple[list[Mat], list[Mat]]:
    """(C_1..C_{n-1}, D_1..D_{n-1}) for one leg; C_k maps dim k to dim k+1."""
    n = aux.v[aux.loop_node(loop_id)]
    cs = [rep.x[leg_arrow_c(loop_id, k)] for k in range(1, n)]
    ds = [rep.x[leg_arrow_d(loop_id, k)] for k in range(1, n)]
    return cs, ds


def leg_stable(aux: AuxResult, rep: Representation) -> bool:
    """Every map pointing toward the original nodes has full column rank."""
    return all(
        rank(c) == c.cols for l in aux.leg_index for c in leg_chains(aux, rep, l)[0]
    )


def _check_chain(n: int, cs: list[Mat], ds: list[Mat]):
    """Refuse a leg chain unless C_k is (k+1) x k and D_k is k x (k+1), k < n."""
    if len(cs) != n - 1 or len(ds) != n - 1:
        raise ValueError("chain length must be n-1")
    for k, (c, d) in enumerate(zip(cs, ds), 1):
        if (c.rows, c.cols, d.rows, d.cols) != (k + 1, k, k, k + 1):
            raise ValueError(
                f"C_{k} must be {k + 1}x{k} and D_{k} {k}x{k + 1}, "
                f"got {c.rows}x{c.cols} and {d.rows}x{d.cols}"
            )


def _leg_depth_scalars(n: int, cs: list[Mat], ds: list[Mat]) -> list:
    """Moment scalar at each leg depth 1..n-1, None where the block is not scalar.

    Depth j has dimension n-j; its moment value is C_{m-1} D_{m-1} - D_m C_m
    at m = n-j, one _num_sum of the two integer products, whose scalar test
    runs on integers. The chain must be well shaped (_check_chain).
    """
    out = []
    for depth in range(1, n):
        m = n - depth
        terms = [_product_term(1, cs[m - 2], ds[m - 2])] if m >= 2 else []
        terms.append(_product_term(-1, ds[m - 1], cs[m - 1]))
        rows, den = _num_sum(terms, m)
        s = _scalar_entry(rows)
        out.append(None if s is None else Fraction(s, den))
    return out


def leg_moment_scalars(aux: AuxResult, rep: Representation, loop_id):
    """Moment scalars (s_1, ..., s_{n-1}) indexed by leg depth.

    Returns None if some leg-node moment block is not scalar.
    """
    cs, ds = leg_chains(aux, rep, loop_id)
    n = aux.v[aux.loop_node(loop_id)]
    _check_chain(n, cs, ds)
    scalars = _leg_depth_scalars(n, cs, ds)
    if any(s is None for s in scalars):
        return None
    return tuple(scalars)


def p_map(aux: AuxResult, rep: Representation, t: dict) -> Representation:
    """Assemble a loop-augmented representation from an auxiliary one.

    Identity on the doubled block of the base quiver; each loop value is
    C_{n-1} D_{n-1} + t*id, degenerating to t*id for empty legs.
    """
    validate_shapes(aux.quiver, DimData(aux.v, aux.d), rep)
    x = {}
    for a_id, astar_id in aux.base_split.pairs:
        x[a_id] = rep.x[a_id]
        x[astar_id] = rep.x[astar_id]
    for loop_id in aux.add_split.loops:
        node = aux.loop_node(loop_id)
        n = aux.v[node]
        p, q = frac(t[loop_id]).as_integer_ratio()
        terms = [(p, None, q)]
        if aux.leg_index[loop_id]:
            cs, ds = leg_chains(aux, rep, loop_id)
            terms.append(_product_term(1, cs[-1], ds[-1]))
        x[loop_id] = Mat._from_ints(*_num_sum(terms, n), n)
    a = {nd: rep.a[nd] for nd in aux.base_quiver.nodes}
    b = {nd: rep.b[nd] for nd in aux.base_quiver.nodes}
    return Representation(x, a, b)


def moment_resolved(aux: AuxResult, rep: Representation) -> dict:
    """Moment values of an auxiliary representation at the base nodes only;
    the leg nodes' blocks are never formed."""
    validate_shapes(aux.quiver, DimData(aux.v, aux.d), rep)
    return _moment_blocks(aux.quiver, aux.split, aux.v, rep, aux.base_quiver.nodes)


def check_compare_moment(aux: AuxResult, rep: Representation, t: dict) -> bool:
    """Moment comparison at every base node, exactly.

    Checks mu^add(assembled rep) = mu^res(aux rep) + (sum of t over loops at
    the node) * id.
    """
    img = p_map(aux, rep, t)  # validates rep's shapes; img's follow from them
    nodes = aux.base_quiver.nodes
    mu_add = _moment_blocks(aux.add_quiver, aux.add_split, aux.v, img, nodes)
    mu_res = _moment_blocks(aux.quiver, aux.split, aux.v, rep, nodes)
    for node in nodes:
        t_sum = sum(
            (frac(t[l]) for l in aux.add_split.loops if aux.loop_node(l) == node),
            Fraction(0),
        )
        mu = mu_res[node]
        p, q = t_sum.as_integer_ratio()
        expected = _num_sum([(1, mu.num, mu.den), (p, None, q)], mu.rows)
        if mu_add[node] != Mat._from_ints(*expected, mu.cols):
            return False
    return True


# ---------------------------------------------------------------------------
# Flag structure of a single leg

@dataclass(slots=True)
class FlagReport:
    """A flag check's verdict."""

    ok: bool


def flag_check(n: int, cs: list[Mat], ds: list[Mat], t) -> FlagReport:
    """Verify the flag shape of X = C_{n-1} D_{n-1} + t*id.

    V_k is the image of C_{n-1} ... C_{n-k}; X must preserve each V_k and
    act on V_k / V_{k+1} by e_k = t + lambda_1 + ... + lambda_k, where
    lambda_j = -s_j is read off the moment scalar s_j at leg depth j. Then
    X - e_k = C_{n-1} D_{n-1} + (s_1 + ... + s_k) id, so t cancels: it is
    refused unless it is an exact rational, and takes no part in the
    verdict.
    """
    frac(t)
    _check_chain(n, cs, ds)

    # each V_k as an integer Gauss-Jordan basis {pivot: row}. Every C is
    # injective exactly when every composite C_{n-1} ... C_{n-k} is, that
    # is when each V_k has n-k basis rows
    bases = [{i: _unit(i, n) for i in range(n)}]
    comp = None
    for k in range(1, n):
        comp = cs[n - 2] if comp is None else comp.matmul(cs[n - 1 - k])
        bases.append(_int_basis(zip(*comp.num)))
        if len(bases[k]) != n - k:
            raise ValueError("leg is not leg-stable: some C has a kernel")

    depth_scalars = _leg_depth_scalars(n, cs, ds)
    if None in depth_scalars:
        return FlagReport(ok=False)

    # X - e_k is one _num_sum per level: integer rows, a positive multiple
    # of it. X preserves the flag with these quotient scalars exactly when
    # (X - e_k) sends each basis row of V_k into V_{k+1}; since V_{k+1}
    # lies in V_k, that test also decides whether X preserves V_k
    prod = [_product_term(1, cs[-1], ds[-1])] if n >= 2 else []
    shift = Fraction(0)  # s_1 + ... + s_k
    for k in range(n):
        if k:
            shift += depth_scalars[k - 1]
        p, q = shift.as_integer_ratio()
        shifted, _ = _num_sum([*prod, (p, None, q)], n)
        vnext = bases[k + 1] if k + 1 < n else {}
        for row in bases[k].values():
            if any(_reduce(vnext, [sum(map(mul, r, row)) for r in shifted])):
                return FlagReport(ok=False)
    return FlagReport(ok=True)


# ---------------------------------------------------------------------------
# Characteristic-polynomial invariants

@dataclass
class TauPoint:
    """Coordinates of the deformation-base point attached to a representation.

    One monic characteristic polynomial per loop of the loop-augmented
    quiver: existing loops contribute their own value, the added loop at a
    node contributes the negated moment value there.
    """

    loop_polys: dict   # loop arrow id -> coefficient tuple
    node_polys: dict   # node -> coefficient tuple


def tau_charpoly(q: Quiver, split: ArrowSplit, dims: DimData, rep: Representation) -> TauPoint:
    mu = moment_map(q, split, dims, rep)
    loop_polys = {l: charpoly(rep.x[l]) for l in split.loops}
    node_polys = {n: charpoly(-mu[n]) for n in q.nodes}
    return TauPoint(loop_polys, node_polys)


def gauge_transform(q: Quiver, dims: DimData, rep: Representation, g: dict) -> Representation:
    """Base change by invertible g_i at every node."""
    ginv = {n: g[n].inverse() for n in q.nodes}
    x = {
        ar.id: g[ar.head].matmul(rep.x[ar.id]).matmul(ginv[ar.tail])
        for ar in q.arrows
    }
    a = {n: g[n].matmul(rep.a[n]) for n in q.nodes}
    b = {n: rep.b[n].matmul(ginv[n]) for n in q.nodes}
    return Representation(x, a, b)
