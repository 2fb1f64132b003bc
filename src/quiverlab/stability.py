"""Exact GIT stability for framed quiver representations.

Sign-definite stability conditions are decided exactly: for positive theta
a representation is stable iff no nonzero invariant graded subspace is
killed by every B map, and for negative theta iff the framing images
generate everything. Mixed signs only get a randomized destabilizer
search, which can certify instability but never stability.

Witnesses carry explicit bases so invariance can be rechecked from
scratch; pairings are evaluated in the completed sense where the framing
is absorbed into an extra dimension-1 node whose stability value is
-sum(theta_i * v_i).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactlinalg import Mat, _rref_inplace, frac, in_span, kernel_basis, reduce_span
from .quiver import Arrow, DimData, Quiver
from .reps import Representation, leg_moment_scalars, leg_stable, p_map, validate_shapes
from .surgery import AuxResult, lift_stability


class MixedSignTheta(ValueError):
    """Raised when the exact routine is asked about a mixed-sign condition."""


@dataclass
class SubrepWitness:
    """Invariant graded subspace certifying instability."""

    dims: dict            # node -> dimension of the subspace
    basis: dict           # node -> tuple of basis row vectors
    pairing: Fraction     # completed pairing; positive for a destabilizer
    includes_framing: bool  # True when the extra framing node is inside


def _integer_rows(rows) -> list[list[int]]:
    """The rows times the lcm of all their entries' denominators.

    One common scale for all rows, so a matrix keeps its map up to a scalar;
    scaling its rows separately would change the map.
    """
    scale = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (scale // e.denominator) for e in row] for row in rows]


def _insert(basis: dict, vec: list) -> list | None:
    """Add an integer vector to a Gauss-Jordan basis {pivot: row}.

    Every row is zero at the other rows' pivots, so the vector is reduced
    row by row in any order. A nonzero remainder, divided by its gcd, is
    cleared from the other rows at its first nonzero column, stored and
    returned; a vector already in the span returns None.
    """
    for p, row in basis.items():
        c = vec[p]
        if c:
            d = row[p]
            vec = [d * a - c * b for a, b in zip(vec, row)]
    g = gcd(*vec)
    if not g:
        return None
    if g > 1:
        vec = [a // g for a in vec]
    pivot = next(i for i, a in enumerate(vec) if a)
    d = vec[pivot]
    for p, row in basis.items():
        c = row[pivot]
        if c:
            row = [d * a - c * b for a, b in zip(row, vec)]
            g = gcd(*row)
            basis[p] = [a // g for a in row] if g > 1 else row
    basis[pivot] = vec
    return vec


def generated_closure(
    q: Quiver,
    dims: DimData,
    rep: Representation,
    seeds: dict,
    include_framing: bool = False,
) -> dict:
    """Smallest graded subspace containing the seeds, closed under all arrows.

    With include_framing the columns of every A block are added to the
    seeds, matching subspaces that contain the framing node.

    A worklist closure over integer rows. Each arrow matrix is scaled to
    integers by one common denominator, and each node keeps a Gauss-Jordan
    basis of integer rows (see _insert). A seed or image vector that
    enlarges its node's basis is queued; popping it applies only the arrows
    out of that node, skipping a head whose basis is already full. Each
    node's rows then go through the RREF kernel once, so the spans are the
    canonical bases reduce_span gives.
    """
    arrows_out = {n: [] for n in q.nodes}
    for ar in q.arrows:
        m = rep.x[ar.id]
        if (m.rows, m.cols) != (dims.v[ar.head], dims.v[ar.tail]):
            raise ValueError(f"arrow {ar.id!r} has wrong shape")
        arrows_out[ar.tail].append((ar.head, _integer_rows(m.data)))
    bases = {n: {} for n in q.nodes}
    work = []
    for n in q.nodes:
        vecs = [tuple(map(frac, v)) for v in seeds.get(n, ())]
        if include_framing:
            vecs += [rep.a[n].col_tuple(j) for j in range(rep.a[n].cols)]
        if any(len(v) != dims.v[n] for v in vecs):
            raise ValueError(f"vector of wrong length at node {n!r}")
        for v in vecs:
            row = _insert(bases[n], _integer_rows((v,))[0])
            if row is not None:
                work.append((n, row))
    while work:
        n, vec = work.pop()
        for head, m in arrows_out[n]:
            if len(bases[head]) < dims.v[head]:
                row = _insert(bases[head], [sum(map(mul, r, vec)) for r in m])
                if row is not None:
                    work.append((head, row))
    return {n: tuple(map(tuple, _rref_inplace(list(bases[n].values()))[0])) for n in q.nodes}


def cogenerated_core(q: Quiver, dims: DimData, rep: Representation) -> dict:
    """Largest graded subspace sent into itself by every arrow and killed by B.

    Computed as an annihilator: the covectors vanishing on the core form
    the smallest graded subspace of the dual containing the rows of every
    B block and closed under the transposed arrows, which is
    generated_closure on the opposite quiver.
    """
    opposite = Quiver(q.nodes, tuple(Arrow(a.id, a.head, a.tail) for a in q.arrows))
    # no framing blocks: the closure below never includes the framing node
    dual = Representation({a.id: rep.x[a.id].transpose() for a in q.arrows}, {}, {})
    rows = generated_closure(opposite, dims, dual, {n: rep.b[n].data for n in q.nodes})
    return {
        n: reduce_span(kernel_basis(Mat(rows[n], cols=dims.v[n])), dims.v[n])
        for n in q.nodes
    }


def _completed_pairing(q: Quiver, dims: DimData, theta, sub_dims, includes_framing: bool) -> Fraction:
    total = sum((frac(theta[n]) * sub_dims[n] for n in q.nodes), Fraction(0))
    if includes_framing:
        total -= sum((frac(theta[n]) * dims.v[n] for n in q.nodes), Fraction(0))
    return total


def _witness_from_spans(q, dims, theta, spans, includes_framing) -> SubrepWitness:
    sub_dims = {n: len(spans[n]) for n in q.nodes}
    return SubrepWitness(
        dims=sub_dims,
        basis={n: spans[n] for n in q.nodes},
        pairing=_completed_pairing(q, dims, theta, sub_dims, includes_framing),
        includes_framing=includes_framing,
    )


def _side_rule_holds(q, dims, rep, spans, includes_framing) -> bool:
    """The completion's side condition on an invariant graded subspace: one
    holding the framing node must be proper, one missing it must be nonzero
    and killed by every B map."""
    if includes_framing:
        return any(len(spans[n]) < dims.v[n] for n in q.nodes)
    return any(spans[n] for n in q.nodes) and not any(
        any(rep.b[n].apply(vec)) for n in q.nodes for vec in spans[n]
    )


def verify_witness(
    q: Quiver, dims: DimData, rep: Representation, theta, w: SubrepWitness
) -> bool:
    """Recheck a witness by direct matrix containment, independently of how
    it was produced: arrow invariance, the framing condition for its side
    of the completion, and the recorded pairing value."""
    for n in q.nodes:
        if len(w.basis[n]) != w.dims[n]:
            return False
    for ar in q.arrows:
        for vec in w.basis[ar.tail]:
            if not in_span(rep.x[ar.id].apply(vec), w.basis[ar.head], dims.v[ar.head]):
                return False
    if w.includes_framing:
        for n in q.nodes:
            for j in range(rep.a[n].cols):
                if not in_span(rep.a[n].col_tuple(j), w.basis[n], dims.v[n]):
                    return False
    if not _side_rule_holds(q, dims, rep, w.basis, w.includes_framing):
        return False
    return w.pairing == _completed_pairing(q, dims, theta, w.dims, w.includes_framing)


def _theta_sign(q: Quiver, theta) -> int:
    values = [frac(theta[n]) for n in q.nodes]
    if all(v > 0 for v in values):
        return 1
    if all(v < 0 for v in values):
        return -1
    return 0


def is_stable_signdef(q: Quiver, dims: DimData, rep: Representation, theta) -> bool:
    """Exact stability for strictly positive or strictly negative theta."""
    return stability_report(q, dims, rep, theta)[0]


def stability_report(q: Quiver, dims: DimData, rep: Representation, theta):
    """(stable, witness) for sign-definite theta; witness is None when stable.

    The B-killed core (positive theta) or the closure of the framing images
    (negative theta) destabilizes exactly when it obeys the side rule.
    """
    validate_shapes(q, dims, rep)
    sign = _theta_sign(q, theta)
    if sign == 0:
        raise MixedSignTheta(
            "mixed-sign stability is undecidable by this routine; "
            "use destabilizer_search for a semidecision"
        )
    includes_framing = sign < 0
    if includes_framing:
        spans = generated_closure(q, dims, rep, {}, include_framing=True)
    else:
        spans = cogenerated_core(q, dims, rep)
    if not _side_rule_holds(q, dims, rep, spans, includes_framing):
        return True, None
    return False, _witness_from_spans(q, dims, theta, spans, includes_framing)


def destabilizer_search(
    q: Quiver,
    dims: DimData,
    rep: Representation,
    theta,
    trials: int = 50,
    seed: int = 0,
):
    """Randomized destabilizer semidecision for arbitrary theta.

    Samples seed vectors or coordinate subsets per node, closes them up
    under the arrow maps, and returns the first proper invariant subspace
    with positive completed pairing. Returning None only means the budget
    ran out, never stability.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    validate_shapes(q, dims, rep)
    rng = random.Random(seed)
    # a subspace missing the framing node can only destabilize where theta
    # is positive somewhere; one containing it only where negative somewhere
    modes = []
    if any(frac(theta[n]) > 0 for n in q.nodes):
        modes.append(False)
    if any(frac(theta[n]) < 0 for n in q.nodes):
        modes.append(True)
    if not modes:
        return None

    def unit(vn, j):
        return tuple(Fraction(1 if i == j else 0) for i in range(vn))

    # systematic phase: every single coordinate line (and the bare framing
    # span), then random coordinate subsets / vector seeds
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
                    seeds[n] = [
                        tuple(Fraction(rng.randint(-3, 3)) for _ in range(vn))
                        for _ in range(count)
                    ]
        spans = generated_closure(q, dims, rep, seeds, include_framing=include_framing)
        if not _side_rule_holds(q, dims, rep, spans, include_framing):
            continue
        witness = _witness_from_spans(q, dims, theta, spans, include_framing)
        if witness.pairing > 0:
            return witness
    return None


@dataclass
class TransferReport:
    lhs_stable: bool        # assembled representation, base condition
    rhs_stable: bool        # auxiliary representation, lifted condition
    inclusion_ok: bool
    delta: Fraction
    lhs_witness: SubrepWitness | None = None
    rhs_witness: SubrepWitness | None = None


def check_stability_transfer(
    aux: AuxResult,
    rep: Representation,
    t: dict,
    xi,
    delta=None,
) -> TransferReport:
    """Instance-level check of the stability transfer between the two models.

    Computes stability of the assembled loop-augmented representation for
    xi and of the auxiliary representation for the lifted condition, and
    reports whether the two verdicts agree. Requires strictly positive xi
    (both conditions are then exactly decidable), a leg-stable input and
    scalar leg moment values.
    """
    if any(frac(xi[n]) <= 0 for n in aux.base_quiver.nodes):
        raise ValueError("xi must be strictly positive on every base node")
    if not leg_stable(aux, rep):
        raise ValueError("auxiliary representation is not leg-stable")
    for loop_id in aux.leg_index:
        if leg_moment_scalars(aux, rep, loop_id) is None:
            raise ValueError(f"leg {loop_id!r} moment value is not scalar")

    lifted, delta_used = lift_stability(xi, aux, delta)
    img = p_map(aux, rep, t)
    lhs, lhs_w = stability_report(aux.add_quiver, aux.base_dims(), img, xi)
    rhs, rhs_w = stability_report(aux.quiver, DimData(aux.v, aux.d), rep, lifted)
    return TransferReport(
        lhs_stable=lhs,
        rhs_stable=rhs,
        inclusion_ok=(lhs == rhs),
        delta=delta_used,
        lhs_witness=lhs_w,
        rhs_witness=rhs_w,
    )
