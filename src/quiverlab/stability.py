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

The search skips, without a closure, every trial that cannot pass the
side rule. A subspace missing the framing node that is invariant and
killed by every B lies inside the B-killed core; the core is invariant,
so a closure lies in it exactly when its seeds do. A subspace holding the
framing node contains the closure of the framing images, so a trial of
that mode grows from that closure, and none can be proper when it is
full. Skipped trials still draw their seeds, so the random stream, the
first trial that succeeds and its witness are those of an unpruned
search.

Each check (stability_report, destabilizer_search) clears the
representation into one integer form, _IntegerRep: every arrow matrix
scaled by one common denominator, and its transpose for the core; the A
columns and B rows, read as numerators like the arrows. The closure, the
core (a dual closure and the kernel read off its basis) and the side rule
all run on integer Gauss-Jordan bases grown by exactlinalg.insert_row.
Fractions are made only at the edges: the public generated_closure clears
its seeds on entry, normalise_basis makes the canonical bases that
generated_closure and cogenerated_core return and that a witness carries
(the search normalises only the witness it returns), pairings are
Fractions of theta, and verify_witness rechecks a witness on Fractions,
apart from the form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .exactlinalg import (
    _reduce,
    _unit,
    clear_denominators,
    frac,
    in_span,
    insert_row,
    kernel_rows,
    normalise_basis,
    reduce_span,
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


class _IntegerRep(NamedTuple):
    """A representation on integer rows, built once per stability check.

    Each arrow matrix is its Mat numerator, cleared by one common scale, so
    it keeps its map up to a scalar and sends spans to the same spans;
    per-row scales would not. The A columns and B rows only span, so their
    numerators serve as well: insert_row stores any positive multiple of a
    seed row as the same row, and the side rule only tests pairings for
    zero.
    """

    arrows_out: dict  # node -> [(head, M)] for each arrow out of it
    arrows_in: dict   # node -> [(tail, M^T)] for each arrow into it
    a_cols: dict      # node -> the columns of its A block
    b_rows: dict      # node -> the rows of its B block


def _integer_rep(q: Quiver, dims: DimData, rep: Representation) -> _IntegerRep:
    """The integer form of a representation whose shapes validate_shapes
    accepts. Each entry point builds it first, before any other check."""
    validate_shapes(q, dims, rep)
    arrows_out = {n: [] for n in q.nodes}
    arrows_in = {n: [] for n in q.nodes}
    for ar in q.arrows:
        m = rep.x[ar.id].num
        arrows_out[ar.tail].append((ar.head, m))
        arrows_in[ar.head].append((ar.tail, list(zip(*m))))
    a_cols = {n: list(zip(*rep.a[n].num)) for n in q.nodes}
    b_rows = {n: rep.b[n].num for n in q.nodes}
    return _IntegerRep(arrows_out, arrows_in, a_cols, b_rows)


def _closure(maps: dict, dims: DimData, *seed_rows: dict, start: dict | None = None) -> dict:
    """Smallest graded subspace containing the integer seed rows and closed
    under maps (node -> [(target, M)]), as a Gauss-Jordan basis per node.

    A worklist closure: a seed or image vector that enlarges its node's
    basis is queued; popping it applies only the maps out of that node,
    skipping a target whose basis is already full. A start basis per node,
    already closed under maps, is copied and grown; insert_row replaces
    rows and never changes one in place, so copying each dict suffices.
    """
    bases = {n: dict(start[n]) for n in maps} if start else {n: {} for n in maps}
    work = []
    for seeds in seed_rows:
        for n, rows in seeds.items():
            for v in rows:
                row = insert_row(bases[n], v)
                if row is not None:
                    work.append((n, row))
    while work:
        n, vec = work.pop()
        for head, m in maps[n]:
            if len(bases[head]) < dims.v[head]:
                row = insert_row(bases[head], [sum(map(mul, r, vec)) for r in m])
                if row is not None:
                    work.append((head, row))
    return bases


def _generate(form: _IntegerRep, dims: DimData, seeds: dict, include_framing: bool) -> dict:
    return _closure(form.arrows_out, dims, seeds, form.a_cols if include_framing else {})


def _core(form: _IntegerRep, dims: DimData) -> dict:
    """The cogenerated core as a Gauss-Jordan basis per node.

    The covectors vanishing on the core form the smallest graded subspace
    of the dual containing the B rows and closed under the transposed
    arrows; the core at a node is the kernel of that span's basis.
    """
    core = {}
    for n, basis in _closure(form.arrows_in, dims, form.b_rows).items():
        core[n] = {}
        for row in kernel_rows(basis, dims.v[n]).values():
            insert_row(core[n], row)
    return core


def generated_closure(
    q: Quiver,
    dims: DimData,
    rep: Representation,
    seeds: dict,
    include_framing: bool = False,
) -> dict:
    """Smallest graded subspace containing the seeds, closed under all arrows.

    With include_framing the columns of every A block are added to the
    seeds, matching subspaces that contain the framing node. The closure
    runs on the integer form of rep; normalise_basis then gives each node
    the canonical basis reduce_span gives.
    """
    form = _integer_rep(q, dims, rep)
    rows = {}
    for n in q.nodes:
        vecs = [tuple(map(frac, v)) for v in seeds.get(n, ())]
        if any(len(v) != dims.v[n] for v in vecs):
            raise ValueError(f"vector of wrong length at node {n!r}")
        rows[n] = [clear_denominators(v)[0] for v in vecs]
    bases = _generate(form, dims, rows, include_framing)
    return {n: normalise_basis(bases[n]) for n in q.nodes}


def cogenerated_core(q: Quiver, dims: DimData, rep: Representation) -> dict:
    """Largest graded subspace sent into itself by every arrow and killed by B.

    Computed as an annihilator: the covectors vanishing on the core form
    the smallest graded subspace of the dual containing the rows of every
    B block and closed under the transposed arrows.
    """
    core = _core(_integer_rep(q, dims, rep), dims)
    return {n: normalise_basis(core[n]) for n in q.nodes}


def _completed_pairing(q: Quiver, dims: DimData, theta, sub_dims, includes_framing: bool) -> Fraction:
    total = sum((frac(theta[n]) * sub_dims[n] for n in q.nodes), Fraction(0))
    if includes_framing:
        total -= sum((frac(theta[n]) * dims.v[n] for n in q.nodes), Fraction(0))
    return total


def _witness(q, dims, theta, bases, includes_framing) -> SubrepWitness:
    """The witness of an integer basis per node; each is normalised here."""
    sub_dims = {n: len(bases[n]) for n in q.nodes}
    return SubrepWitness(
        dims=sub_dims,
        basis={n: normalise_basis(bases[n]) for n in q.nodes},
        pairing=_completed_pairing(q, dims, theta, sub_dims, includes_framing),
        includes_framing=includes_framing,
    )


def _side_rule_holds(q, dims, b_rows, spans, includes_framing) -> bool:
    """The completion's side condition on an invariant graded subspace: one
    holding the framing node must be proper, one missing it must be nonzero
    and killed by every B map.

    b_rows and spans hold rows of ints or Fractions at each node. The rule
    only sees spans, so an integer basis row decides it as well as the row
    divided by its pivot, and a B row as well as any multiple of it.
    """
    if includes_framing:
        return any(len(spans[n]) < dims.v[n] for n in q.nodes)
    return any(spans[n] for n in q.nodes) and not any(
        sum(map(mul, r, vec)) for n in q.nodes for vec in spans[n] for r in b_rows[n]
    )


def verify_witness(
    q: Quiver, dims: DimData, rep: Representation, theta, w: SubrepWitness
) -> bool:
    """Recheck a witness by direct matrix containment, independently of how
    it was produced: arrow invariance, the framing condition for its side
    of the completion, and the recorded pairing value."""
    validate_shapes(q, dims, rep)
    for n in q.nodes:
        # a basis of the recorded size that spans fewer dimensions is no basis
        basis = w.basis[n]
        if not len(basis) == len(reduce_span(basis, dims.v[n])) == w.dims[n]:
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
    b_rows = {n: rep.b[n].num for n in q.nodes}
    if not _side_rule_holds(q, dims, b_rows, w.basis, w.includes_framing):
        return False
    return w.pairing == _completed_pairing(q, dims, theta, w.dims, w.includes_framing)


def _theta_sign(q: Quiver, theta) -> int:
    values = [frac(theta[n]) for n in q.nodes]
    if all(v > 0 for v in values):
        return 1
    if all(v < 0 for v in values):
        return -1
    return 0


def stability_report(q: Quiver, dims: DimData, rep: Representation, theta):
    """(stable, witness) for sign-definite theta; witness is None when stable.

    The B-killed core (positive theta) or the closure of the framing images
    (negative theta) destabilizes exactly when it obeys the side rule.
    """
    form = _integer_rep(q, dims, rep)
    sign = _theta_sign(q, theta)
    if sign == 0:
        raise MixedSignTheta(
            "mixed-sign stability is undecidable by this routine; "
            "use destabilizer_search for a semidecision"
        )
    includes_framing = sign < 0
    bases = _generate(form, dims, {}, True) if includes_framing else _core(form, dims)
    spans = {n: bases[n].values() for n in q.nodes}
    if not _side_rule_holds(q, dims, form.b_rows, spans, includes_framing):
        return True, None
    return False, _witness(q, dims, theta, bases, includes_framing)


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

    Trials that cannot pass the side rule are skipped without a closure,
    by two containments computed once per call:
    - missing the framing: an invariant subspace killed by every B lies in
      the B-killed core, and a closure lies in the core exactly when its
      seeds do. A trial is skipped when its seeds are all zero or one of
      them leaves the core; the closure of any other trial is nonzero and
      killed by B.
    - holding the framing: every closure contains the closure of the
      framing images. When that is full at every node no trial of this
      mode is proper; otherwise each trial grows from a copy of it.
    Every trial draws its seeds, skipped or not, so later trials see the
    same random stream and the first trial that succeeds is the one an
    unpruned search finds; its witness basis is canonical.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    form = _integer_rep(q, dims, rep)
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

    # systematic phase: every single coordinate line (and the bare framing
    # span), then random coordinate subsets / vector seeds
    systematic = [(m, {}) for m in modes if m]
    for m in modes:
        for n in q.nodes:
            for j in range(dims.v[n]):
                systematic.append((m, {n: [_unit(j, dims.v[n])]}))

    core = _core(form, dims) if False in modes else None
    framing = _generate(form, dims, {}, True) if True in modes else None
    framing_full = framing is not None and all(len(framing[n]) == dims.v[n] for n in q.nodes)
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
                    seeds[n] = [_unit(j, vn) for j in chosen]
                else:
                    count = rng.randint(0, max(0, vn - 1))
                    seeds[n] = [[rng.randint(-3, 3) for _ in range(vn)] for _ in range(count)]
        if include_framing:
            if framing_full:
                continue
            bases = _closure(form.arrows_out, dims, seeds, start=framing)
            if all(len(bases[n]) == dims.v[n] for n in q.nodes):
                continue
        else:
            rows = [(n, v) for n, vs in seeds.items() for v in vs if any(v)]
            if not rows or any(any(_reduce(core[n], v)) for n, v in rows):
                continue
            bases = _generate(form, dims, seeds, False)
        sub_dims = {n: len(bases[n]) for n in q.nodes}
        if _completed_pairing(q, dims, theta, sub_dims, include_framing) > 0:
            return _witness(q, dims, theta, bases, include_framing)
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
