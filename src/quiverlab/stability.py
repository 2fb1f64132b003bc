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

from .exactlinalg import (
    frac,
    full_span,
    image_span,
    in_span,
    preimage_span,
    reduce_span,
    span_dim,
    span_intersect,
    span_sum,
)
from .quiver import DimData, Quiver
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
    """
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
            img = image_span(rep.x[ar.id], spans[ar.tail])
            merged = span_sum(spans[ar.head], img, dims.v[ar.head])
            if merged != spans[ar.head]:
                spans[ar.head] = merged
                changed = True
    return spans


def cogenerated_core(q: Quiver, dims: DimData, rep: Representation) -> dict:
    """Largest graded subspace sent into itself by every arrow and killed by B."""
    spans = {}
    for n in q.nodes:
        if dims.d[n] == 0:
            spans[n] = full_span(dims.v[n])
        else:
            spans[n] = preimage_span(rep.b[n], ())
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


def _completed_pairing(q: Quiver, dims: DimData, theta, sub_dims, includes_framing: bool) -> Fraction:
    total = sum((frac(theta[n]) * sub_dims[n] for n in q.nodes), Fraction(0))
    if includes_framing:
        total -= sum((frac(theta[n]) * dims.v[n] for n in q.nodes), Fraction(0))
    return total


def _witness_from_spans(q, dims, theta, spans, includes_framing) -> SubrepWitness:
    sub_dims = {n: span_dim(spans[n]) for n in q.nodes}
    return SubrepWitness(
        dims=sub_dims,
        basis={n: spans[n] for n in q.nodes},
        pairing=_completed_pairing(q, dims, theta, sub_dims, includes_framing),
        includes_framing=includes_framing,
    )


def verify_witness(
    q: Quiver, dims: DimData, rep: Representation, theta, w: SubrepWitness
) -> bool:
    """Recheck a witness by direct matrix containment, independently of how
    it was produced: arrow invariance, the framing condition for its side
    of the completion, and the recorded pairing value."""
    for n in q.nodes:
        if span_dim(w.basis[n]) != w.dims[n]:
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
        if all(w.dims[n] == dims.v[n] for n in q.nodes):
            return False  # not proper
    else:
        for n in q.nodes:
            for vec in w.basis[n]:
                if any(rep.b[n].apply(vec)):
                    return False
        if all(w.dims[n] == 0 for n in q.nodes):
            return False  # zero subspace
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
    validate_shapes(q, dims, rep)
    return stability_report(q, dims, rep, theta)[0]


def stability_report(q: Quiver, dims: DimData, rep: Representation, theta):
    """(stable, witness) for sign-definite theta; witness is None when stable."""
    sign = _theta_sign(q, theta)
    if sign == 0:
        raise MixedSignTheta(
            "mixed-sign stability is undecidable by this routine; "
            "use destabilizer_search for a semidecision"
        )
    if sign > 0:
        core = cogenerated_core(q, dims, rep)
        if all(span_dim(core[n]) == 0 for n in q.nodes):
            return True, None
        return False, _witness_from_spans(q, dims, theta, core, includes_framing=False)
    closure = generated_closure(q, dims, rep, {}, include_framing=True)
    if all(span_dim(closure[n]) == dims.v[n] for n in q.nodes):
        return True, None
    return False, _witness_from_spans(q, dims, theta, closure, includes_framing=True)


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
        sub_dims = {n: span_dim(spans[n]) for n in q.nodes}
        if include_framing:
            # completed subspace contains the framing node: proper means
            # some gauge node is not exhausted
            if all(sub_dims[n] == dims.v[n] for n in q.nodes):
                continue
        else:
            # completed subspace misses the framing node: must be nonzero
            # and killed by every B map
            if all(sub_dims[n] == 0 for n in q.nodes):
                continue
            if any(
                any(rep.b[n].apply(vec)) for n in q.nodes for vec in spans[n]
            ):
                continue
        pairing = _completed_pairing(q, dims, theta, sub_dims, include_framing)
        if pairing > 0:
            return _witness_from_spans(q, dims, theta, spans, include_framing)
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
    base = aux.base_quiver
    if any(frac(xi[n]) <= 0 for n in base.nodes):
        raise ValueError("xi must be strictly positive on every base node")
    if not leg_stable(aux, rep):
        raise ValueError("auxiliary representation is not leg-stable")
    for loop_id in aux.leg_index:
        if leg_moment_scalars(aux, rep, loop_id) is None:
            raise ValueError(f"leg {loop_id!r} moment value is not scalar")

    lifted, delta_used = lift_stability(xi, aux, delta)
    img = p_map(aux, rep, t)
    dims_add = DimData(
        {n: aux.v[n] for n in base.nodes}, {n: aux.d[n] for n in base.nodes}
    )
    dims_aux = DimData(aux.v, aux.d)
    lhs, lhs_w = stability_report(aux.add_quiver, dims_add, img, xi)
    rhs, rhs_w = stability_report(aux.quiver, dims_aux, rep, lifted)
    return TransferReport(
        lhs_stable=lhs,
        rhs_stable=rhs,
        inclusion_ok=(lhs == rhs),
        delta=delta_used,
        lhs_witness=lhs_w,
        rhs_witness=rhs_w,
    )
