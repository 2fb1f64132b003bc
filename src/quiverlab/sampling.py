"""Seeded random generators for representations and constrained leg data.

Entries are uniform over {-N..N}/{1..M} with N=10, M=5 unless stated;
every sampler takes an explicit random.Random so batches are reproducible
from a recorded root seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .exactlinalg import Mat, left_inverse, left_kernel_basis, rank
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

    C maps are sampled injective; the D maps are then solved bottom-up from
    prescribed scalars: at dimension m the constraint reads
    D_m C_m = C_{m-1} D_{m-1} - s_m, whose solution set is a particular
    solution plus (column vector) x (left kernel of C_m).
    """
    cs = [random_injective(rng, k + 1, k) for k in range(1, n)]
    ds: list[Mat] = []
    for m in range(1, n):
        c = cs[m - 1]
        rhs = -random_fraction(rng) * Mat.identity(m)
        if m >= 2:
            rhs = cs[m - 2].matmul(ds[m - 2]) + rhs
        d = rhs.matmul(left_inverse(c))
        (z,) = left_kernel_basis(c)
        noise = Mat.column([random_fraction(rng) for _ in range(m)]).matmul(
            Mat([z], cols=m + 1)
        )
        ds.append(d + noise)
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
