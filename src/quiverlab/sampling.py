"""Seeded random generators for representations and constrained leg data.

Entries are uniform over {-N..N}/{1..M} with N=10, M=5 unless stated;
every sampler takes an explicit random.Random so batches are reproducible
from a recorded root seed.

Same-stream rule: a rewrite of a sampler makes the same randint draws in
the same order and yields equal Mats, so seeded output never changes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul

from .exactlinalg import Mat, _int_basis, _num_sum, _product_term, _unit, kernel_rows, rank
from .quiver import DimData, Quiver
from .reps import Representation
from .surgery import AuxResult, leg_arrow_c, leg_arrow_d

NUM_RANGE = 10
DEN_RANGE = 5


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-NUM_RANGE, NUM_RANGE), rng.randint(1, DEN_RANGE))


def random_matrix(rng: random.Random, rows: int, cols: int) -> Mat:
    """A matrix of random_fraction entries, drawn row by row as the same
    numerator, denominator pairs and cleared by the lcm of the drawn
    denominators; Mat._from_ints brings it to lowest terms."""
    pairs = [
        [(rng.randint(-NUM_RANGE, NUM_RANGE), rng.randint(1, DEN_RANGE)) for _ in range(cols)]
        for _ in range(rows)
    ]
    den = lcm(*(d for row in pairs for _, d in row))
    return Mat._from_ints(tuple(tuple(n * (den // d) for n, d in row) for row in pairs), den, cols)


def random_injective(rng: random.Random, rows: int, cols: int) -> Mat:
    if cols > rows:
        raise ValueError("no injective map into a smaller space")
    while True:
        m = random_matrix(rng, rows, cols)
        if rank(m) == cols:
            return m


def random_representation(rng: random.Random, q: Quiver, dims: DimData) -> Representation:
    x = {
        ar.id: random_matrix(rng, dims.v[ar.head], dims.v[ar.tail]) for ar in q.arrows
    }
    a = {n: random_matrix(rng, dims.v[n], dims.d[n]) for n in q.nodes}
    b = {n: random_matrix(rng, dims.d[n], dims.v[n]) for n in q.nodes}
    return Representation(x, a, b)


def random_gauge(rng: random.Random, q: Quiver, dims: DimData) -> dict:
    return {n: random_injective(rng, dims.v[n], dims.v[n]) for n in q.nodes}


def random_scalar_moment_leg(rng: random.Random, n: int) -> tuple[list[Mat], list[Mat]]:
    """Leg-stable chains whose leg moment values are scalars.

    The C maps are sampled injective; bottom-up from random scalars s_m,
    D_m = [C_{m-1} D_{m-1} - s_m | noise] @ [L; z] solves D_m C_m =
    C_{m-1} D_{m-1} - s_m, for the left inverse L of C_m that solve(C_m^T, I)
    gives and the row z spanning its left kernel. One integer Gauss-Jordan
    elimination of the rows of [C_m^T | den*I] gives both: kernel_rows of
    its left block, and its right block over the pivots. The same
    elimination accepts the draw: C_m is injective exactly when no pivot
    falls in the right block, and a rejected C_m is drawn again, the
    random_matrix calls random_injective makes. The draws are the C's, then
    per level the column [s_m; noise] as one random_matrix.
    """
    cs: list[Mat] = []
    bases = []
    for m in range(1, n):
        while True:
            c = random_matrix(rng, m + 1, m)
            basis = _int_basis([*col, *_unit(i, m, c.den)] for i, col in enumerate(zip(*c.num)))
            if all(p <= m for p in basis):
                break
        cs.append(c)
        bases.append(basis)
    ds: list[Mat] = []
    for m, basis in enumerate(bases, 1):
        ((f, z),) = kernel_rows(basis, m + 1).items()
        # the columns of [L; z] over k_den; L is zero at the free column f
        k_den = lcm(z[f], *(row[p] for p, row in basis.items()))
        k_cols = [[0] * m + [k_den // z[f] * x] for x in z]
        for p, row in basis.items():
            k_cols[p][:m] = [k_den // row[p] * x for x in row[m + 1 :]]
        drawn = random_matrix(rng, m + 1, 1)
        (s,), *noise = drawn.num
        terms = [_product_term(1, cs[m - 2], ds[m - 2])] if m >= 2 else []
        rows, den = _num_sum([*terms, (-s, None, drawn.den)], m)
        b = den // drawn.den
        left = [(*row, b * y) for row, (y,) in zip(rows, noise)]
        num = tuple(tuple(sum(map(mul, row, col)) for col in k_cols) for row in left)
        ds.append(Mat._from_ints(num, den * k_den, m + 1))
    return cs, ds


def random_leg_stable_aux(
    rng: random.Random, aux: AuxResult
) -> tuple[Representation, dict]:
    """Random auxiliary representation with scalar leg moments, plus offsets t."""
    x = {}
    for a_id, astar_id in aux.base_split.pairs:
        ar = aux.quiver.arrow(a_id)
        x[a_id] = random_matrix(rng, aux.v[ar.head], aux.v[ar.tail])
        x[astar_id] = random_matrix(rng, aux.v[ar.tail], aux.v[ar.head])
    for loop_id in aux.add_split.loops:
        n = aux.v[aux.loop_node(loop_id)]
        cs, ds = random_scalar_moment_leg(rng, n)
        for k in range(1, n):
            x[leg_arrow_c(loop_id, k)] = cs[k - 1]
            x[leg_arrow_d(loop_id, k)] = ds[k - 1]
    a = {}
    b = {}
    for node in aux.quiver.nodes:
        a[node] = random_matrix(rng, aux.v[node], aux.d[node])
        b[node] = random_matrix(rng, aux.d[node], aux.v[node])
    t = {loop_id: random_fraction(rng) for loop_id in aux.add_split.loops}
    return Representation(x, a, b), t
