"""Exact GIT stability for framed quiver representations.

Sign-definite stability conditions are decided exactly: for positive theta
a representation is stable iff no nonzero invariant graded subspace is
killed by every B map, and for negative theta iff the framing images
generate everything. Mixed signs only get a randomized destabilizer
search, which certifies instability with a witness; its None says only that
no witness was found, either because the budget ran out or because no
invariant subspace pairs positively.

Witnesses carry explicit bases so invariance can be rechecked from
scratch; pairings are evaluated in the completed sense where the framing
is absorbed into an extra dimension-1 node whose stability value is
-sum(theta_i * v_i).

Both the exact verdict and the search read each mode of the completion
(missing the framing node, or holding it) through one bound on what its
invariant subspaces can pair to, stated in _extreme. For sign-definite
theta the verdict is that bound's sign; the search skips every trial of a
mode whose bound is zero, and returns None without drawing when no mode's
bound is positive. Skipped trials still draw their seeds, so the random
stream, the first trial that succeeds and its witness are those of an
unpruned search; the stream is local to the call, so no caller sees the
draws a dead search skips.

Each check (stability_report, destabilizer_search) clears the
representation into one integer form, _IntegerRep: every arrow matrix
scaled by one common denominator, and its transpose for the core; the A
columns and B rows, read as numerators like the arrows. The closure and
the core (a dual closure and the kernel read off its basis) run on
integer Gauss-Jordan bases grown by exactlinalg.insert_row. Fractions are
made only at the edges: the public generated_closure clears its seeds on
entry, normalise_basis makes the canonical bases that generated_closure
and cogenerated_core return and that a witness carries (the search
normalises only the witness it returns), pairings are Fractions of theta,
and verify_witness rechecks a witness on Fractions, apart from the form.
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
    seed row as the same row.
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


def verify_witness(
    q: Quiver, dims: DimData, rep: Representation, theta, w: SubrepWitness
) -> bool:
    """Recheck a witness by direct matrix containment, independently of how
    it was produced: arrow invariance, the side rule of its mode of the
    completion (a subspace holding the framing node must hold the framing
    images and be proper, one missing it must be nonzero and killed by
    every B map), and the recorded pairing value."""
    validate_shapes(q, dims, rep)
    # exact types, here and per node: a bool is no int, a float no pairing
    if not (isinstance(w.dims, dict) and isinstance(w.basis, dict)
            and type(w.pairing) in (int, Fraction) and type(w.includes_framing) is bool):
        return False
    for n in q.nodes:
        # a basis of the recorded size that spans fewer dimensions is no
        # basis, nor is a missing node, anything but a sequence of vectors
        # of the node's length, or an entry that is not an int or a Fraction
        # (a bool is neither)
        basis = w.basis.get(n)
        if type(w.dims.get(n)) is not int or not isinstance(basis, (tuple, list)) or not all(
            isinstance(vec, (tuple, list)) and len(vec) == dims.v[n]
            and all(type(x) in (int, Fraction) for x in vec)
            for vec in basis
        ):
            return False
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
        if all(w.dims[n] == dims.v[n] for n in q.nodes):
            return False
    elif not any(w.dims[n] for n in q.nodes) or any(
        any(rep.b[n].apply(vec)) for n in q.nodes for vec in w.basis[n]
    ):
        return False
    return w.pairing == _completed_pairing(q, dims, theta, w.dims, w.includes_framing)


def _extreme(
    q: Quiver, dims: DimData, form: _IntegerRep, theta, include_framing: bool
) -> tuple[dict, bool]:
    """The extreme subspace of one mode of the completion, and whether the
    mode's bound on the completed pairing is positive.

    An invariant subspace missing the framing node and killed by every B
    lies in the B-killed core, so it pairs to at most theta over the core's
    dimensions where theta > 0. One holding the framing node contains the
    closure of the framing images, so it pairs to at most -theta over what
    that closure misses where theta < 0. The core, or the framing closure,
    is the mode's extreme subspace: it obeys the mode's side rule exactly
    when the bound is positive, and pairs to the bound when theta has the
    mode's sign at every node.
    """
    if include_framing:
        bases = _generate(form, dims, {}, True)
        return bases, any(frac(theta[n]) < 0 for n in q.nodes if len(bases[n]) < dims.v[n])
    bases = _core(form, dims)
    return bases, any(frac(theta[n]) > 0 for n in q.nodes if bases[n])


def stability_report(q: Quiver, dims: DimData, rep: Representation, theta):
    """(stable, witness) for sign-definite theta; witness is None when stable.

    Positive theta reads the mode missing the framing node, negative theta
    the mode holding it: the representation is stable exactly when that
    mode's bound (see _extreme) is zero, and otherwise its extreme subspace
    is the witness.
    """
    form = _integer_rep(q, dims, rep)
    positive = all(frac(theta[n]) > 0 for n in q.nodes)
    if not positive and not all(frac(theta[n]) < 0 for n in q.nodes):
        raise MixedSignTheta(
            "mixed-sign stability is undecidable by this routine; "
            "use destabilizer_search for a semidecision"
        )
    bases, live = _extreme(q, dims, form, theta, not positive)
    if not live:
        return True, None
    return False, _witness(q, dims, theta, bases, not positive)


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
    with positive completed pairing. None means that the budget ran out or
    that no invariant subspace has a positive completed pairing; the two
    are not told apart.

    Trials that cannot destabilize are skipped without a closure: every
    trial of a mode whose bound (see _extreme) is zero; a trial missing the
    framing whose seeds are all zero or leave the core, since a closure lies
    in the invariant core exactly when its seeds do; and a trial holding the
    framing whose closure, grown from a copy of the framing closure, is
    full. Every trial draws its seeds, skipped or not, so later trials see
    the same random stream and the first trial that succeeds is the one an
    unpruned search finds; its witness basis is canonical. When no mode's
    bound is positive the search returns None before its first draw, and
    before any trial closure.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    form = _integer_rep(q, dims, rep)
    # a subspace missing the framing node can only destabilize where theta
    # is positive somewhere; one containing it only where negative somewhere
    signs = {(t > 0) - (t < 0) for t in (frac(theta[n]) for n in q.nodes)}
    modes = [m for m, sign in ((False, 1), (True, -1)) if sign in signs]
    extreme = {m: _extreme(q, dims, form, theta, m) for m in modes}
    if not any(live for _, live in extreme.values()):
        return None

    # systematic phase: every single coordinate line (and the bare framing
    # span), then random coordinate subsets / vector seeds
    systematic = [(m, {}) for m in modes if m]
    for m in modes:
        for n in q.nodes:
            for j in range(dims.v[n]):
                systematic.append((m, {n: [_unit(j, dims.v[n])]}))

    rng = random.Random(seed)
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
        top, live = extreme[include_framing]
        if not live:
            continue
        if include_framing:
            bases = _closure(form.arrows_out, dims, seeds, start=top)
            if all(len(bases[n]) == dims.v[n] for n in q.nodes):
                continue
        else:
            rows = [(n, v) for n, vs in seeds.items() for v in vs if any(v)]
            if not rows or any(any(_reduce(top[n], v)) for n, v in rows):
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

    lifted, _ = lift_stability(xi, aux, delta)
    img = p_map(aux, rep, t)
    lhs, lhs_w = stability_report(aux.add_quiver, aux.base_dims(), img, xi)
    rhs, rhs_w = stability_report(aux.quiver, DimData(aux.v, aux.d), rep, lifted)
    return TransferReport(
        lhs_stable=lhs,
        rhs_stable=rhs,
        inclusion_ok=(lhs == rhs),
        lhs_witness=lhs_w,
        rhs_witness=rhs_w,
    )
