"""Exact rational quiver representations and the maps between them.

A representation stores one matrix per arrow plus framing blocks A (d -> v)
and B (v -> d) per node. Moment values live in one v x v block per node,
identifying the dual of the gauge Lie algebra with matrices through the
trace pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (
    Mat,
    charpoly,
    frac,
    rank,
    reduce_span,
    in_span,
)
from .quiver import ArrowSplit, DimData, Quiver
from .surgery import (
    AuxResult,
    generic_locus_hyperplanes,
    is_generic_level,
    leg_arrow_c,
    leg_arrow_d,
)


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


def moment_map(q: Quiver, split: ArrowSplit, dims: DimData, rep: Representation) -> dict:
    """Per-node moment value.

    Doubled pairs contribute X_a X_a* at the head of a and -X_a* X_a at its
    tail, framing contributes A_i B_i, and loop arrows enter linearly.
    """
    validate_shapes(q, dims, rep)
    mu = {n: rep.a[n].matmul(rep.b[n]) for n in q.nodes}
    for a_id, astar_id in split.pairs:
        ar = q.arrow(a_id)
        mu[ar.head] = mu[ar.head] + rep.x[a_id].matmul(rep.x[astar_id])
        mu[ar.tail] = mu[ar.tail] - rep.x[astar_id].matmul(rep.x[a_id])
    for l_id in split.loops:
        node = q.arrow(l_id).head
        mu[node] = mu[node] + rep.x[l_id]
    return mu


# ---------------------------------------------------------------------------
# Legs of the auxiliary quiver

def leg_chains(aux: AuxResult, rep: Representation, loop_id) -> tuple[list[Mat], list[Mat]]:
    """(C_1..C_{n-1}, D_1..D_{n-1}) for one leg; C_k maps dim k to dim k+1."""
    n = aux.v[aux.loop_node(loop_id)]
    cs = [rep.x[leg_arrow_c(loop_id, k)] for k in range(1, n)]
    ds = [rep.x[leg_arrow_d(loop_id, k)] for k in range(1, n)]
    return cs, ds


def _injective_chain(cs: list[Mat]) -> bool:
    """Every C map of a leg chain has full column rank."""
    return all(rank(c) == c.cols for c in cs)


def leg_stable(aux: AuxResult, rep: Representation) -> bool:
    """Every map pointing toward the original nodes has full column rank."""
    return all(_injective_chain(leg_chains(aux, rep, l)[0]) for l in aux.leg_index)


def _leg_depth_scalars(n: int, cs: list[Mat], ds: list[Mat]) -> list:
    """Moment scalar at each leg depth 1..n-1, None where the block is not scalar.

    Depth j has dimension n-j; its moment value is C_{m-1} D_{m-1} - D_m C_m
    at m = n-j.
    """
    out = []
    for depth in range(1, n):
        m = n - depth
        block = -ds[m - 1].matmul(cs[m - 1])
        if m >= 2:
            block = block + cs[m - 2].matmul(ds[m - 2])
        out.append(block.scaled_identity_value())
    return out


def leg_moment_scalars(aux: AuxResult, rep: Representation, loop_id):
    """Moment scalars (s_1, ..., s_{n-1}) indexed by leg depth.

    Returns None if some leg-node moment block is not scalar.
    """
    cs, ds = leg_chains(aux, rep, loop_id)
    scalars = _leg_depth_scalars(aux.v[aux.loop_node(loop_id)], cs, ds)
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
        t_eps = frac(t[loop_id])
        value = t_eps * Mat.identity(n)
        if aux.leg_length(loop_id) > 0:
            cs, ds = leg_chains(aux, rep, loop_id)
            value = cs[-1].matmul(ds[-1]) + value
        x[loop_id] = value
    a = {nd: rep.a[nd] for nd in aux.base_quiver.nodes}
    b = {nd: rep.b[nd] for nd in aux.base_quiver.nodes}
    return Representation(x, a, b)


def moment_resolved(aux: AuxResult, rep: Representation) -> dict:
    """Moment values of an auxiliary representation at the base nodes only."""
    dims_aux = DimData(aux.v, aux.d)
    mu = moment_map(aux.quiver, aux.split, dims_aux, rep)
    return {n: mu[n] for n in aux.base_quiver.nodes}


def check_compare_moment(aux: AuxResult, rep: Representation, t: dict) -> bool:
    """Moment comparison at every base node, exactly.

    Checks mu^add(assembled rep) = mu^res(aux rep) + (sum of t over loops at
    the node) * id.
    """
    img = p_map(aux, rep, t)
    mu_add = moment_map(aux.add_quiver, aux.add_split, aux.base_dims(), img)
    mu_res = moment_resolved(aux, rep)
    for node in aux.base_quiver.nodes:
        t_sum = sum(
            (frac(t[l]) for l in aux.add_split.loops if aux.loop_node(l) == node),
            Fraction(0),
        )
        expected = mu_res[node] + t_sum * Mat.identity(aux.v[node])
        if mu_add[node] != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Flag structure of a single leg

@dataclass
class FlagReport:
    ok: bool
    flags: tuple          # bases of V_0 > V_1 > ... > V_{n-1}
    preserved: bool
    scalars: tuple        # induced scalar on V_k / V_{k+1}, k = 0..n-1
    lambdas: tuple        # deformation parameters lambda_1..lambda_{n-1}
    nonscalar_depths: tuple = ()
    violations: tuple = ()  # (k, witness vector) pairs


def flag_check(n: int, cs: list[Mat], ds: list[Mat], t) -> FlagReport:
    """Verify the flag shape of X = C_{n-1} D_{n-1} + t*id.

    V_k is the image of C_{n-1} ... C_{n-k}; X must preserve each V_k and
    act on V_k / V_{k+1} by t + lambda_1 + ... + lambda_k, where lambda_j
    is read off the moment scalar at leg depth j.
    """
    t = frac(t)
    if len(cs) != n - 1 or len(ds) != n - 1:
        raise ValueError("chain length must be n-1")
    if not _injective_chain(cs):
        raise ValueError("leg is not leg-stable: some C has a kernel")

    scalars = _leg_depth_scalars(n, cs, ds)
    lambdas = [None if s is None else -s for s in scalars]
    nonscalar = [depth for depth, s in enumerate(scalars, 1) if s is None]
    if nonscalar:
        return FlagReport(
            ok=False,
            flags=(),
            preserved=False,
            scalars=(),
            lambdas=tuple(lambdas),
            nonscalar_depths=tuple(nonscalar),
        )

    x = t * Mat.identity(n)
    if n >= 2:
        x = cs[-1].matmul(ds[-1]) + x

    flags = [tuple(Mat.identity(n).data)]
    comp = None
    for k in range(1, n):
        comp = cs[n - 2] if comp is None else comp.matmul(cs[n - 1 - k])
        flags.append(reduce_span([comp.col_tuple(j) for j in range(comp.cols)], n))

    preserved = True
    violations = []
    scalars = []
    for k in range(n):
        vk = flags[k]
        vnext = flags[k + 1] if k + 1 < n else ()
        expected = t + sum(lambdas[:k], Fraction(0))
        scalars.append(expected)
        for vec in vk:
            img = x.apply(vec)
            if k >= 1 and not in_span(img, vk, n):
                preserved = False
                violations.append((k, vec))
                continue
            shifted = tuple(iv - expected * xv for iv, xv in zip(img, vec))
            if any(shifted) and not in_span(shifted, vnext, n):
                violations.append((k, vec))
    ok = preserved and not violations
    return FlagReport(
        ok=ok,
        flags=tuple(flags),
        preserved=preserved,
        scalars=tuple(scalars),
        lambdas=tuple(lambdas),
        violations=tuple(violations),
    )


def flag_check_leg(aux: AuxResult, rep: Representation, loop_id, t) -> FlagReport:
    cs, ds = leg_chains(aux, rep, loop_id)
    return flag_check(aux.v[aux.loop_node(loop_id)], cs, ds, t)


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


# ---------------------------------------------------------------------------
# Generic locus membership for deformation-base points

def leg_coordinates(r_tuple) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(t, lambdas) from the eigenvalue tuple of one leg: r_i = t + sum(lambda_j, j<i)."""
    rs = [frac(x) for x in r_tuple]
    t = rs[0]
    lambdas = tuple(rs[i + 1] - rs[i] for i in range(len(rs) - 1))
    return t, lambdas


def in_H_circ(aux: AuxResult, h: dict) -> bool:
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
