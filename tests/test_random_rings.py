"""Seeded random complete intersections.

A generic integer linear change of coordinates applied to x_1^a_1, ...,
x_c^a_c always gives a complete intersection, so every check on its
resolution has a known answer.
"""

import random

import pytest

from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, cycles_from_generators
from koszulator.polyring import Polynomial
from koszulator.render import export_map_json
from koszulator.resolution import (
    assemble_f,
    betti_numbers,
    poincare_coefficients,
    verify_minimal_and_exact,
)

from oracles import import_map_json, multiply, rank, ring_from_strings

VARS = ["x", "y", "z"]
P = 32003
IMAX = 5
MAX_D = 6
CUTS = {1: ["y ↦ 0"], 5: []}


def random_ci(seed):
    """Generator strings of (l_1^a_1, ..., l_c^a_c), l = A·x, with A an
    integer matrix invertible mod P (hence over Q too)."""
    rng = random.Random(seed)
    n = len(VARS)
    c = rng.choice([2, 3])
    exps = [rng.choice([2, 3]) for _ in range(c)]
    Fp = PrimeField(P)
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rank([[Fp.of(x) for x in row] for row in a], Fp) == n:
            break
    Q = RationalField()
    gens = []
    for row, e in zip(a, exps):
        lin = Polynomial(n, Q, {tuple(int(i == j) for i in range(n)): row[j] for j in range(n)})
        power = Polynomial.constant(n, Q, 1)
        for _ in range(e):
            power = multiply(power, lin)
        gens.append(power.to_string(VARS))
    return gens


def _strand_rank(gmap, d):
    rows, nrows, ncols = gmap.strand_matrix(d)
    return rank(rows, gmap.source.ring.field) if nrows and ncols else 0


@pytest.mark.parametrize("seed", [1, 5])
def test_random_complete_intersection(seed):
    gens = random_ci(seed)
    strand_ranks = []
    for field in (RationalField(), PrimeField(P)):
        ring = ring_from_strings(VARS, gens, field)
        K = build_koszul(ring)
        F = assemble_f(K, cycles_from_generators(K), IMAX)
        assert betti_numbers(F) == poincare_coefficients(ring.nvars, ring.codepth, IMAX)
        res = verify_minimal_and_exact(F)
        exact = res["checks"][2]
        assert res["pass"] and not exact["partial"]
        # proved in every degree through F/y·F (seed 1, where z is a zero
        # divisor and y is cut) or on F itself (seed 5, an Artinian ring)
        assert exact["cut"] == CUTS[seed]
        ranks = {(i, d): _strand_rank(F.differential(i), d)
                 for i in range(1, IMAX + 1) for d in range(MAX_D + 1)}
        strand_ranks.append(list(ranks.values()))
        # the oracle ranks find F exact in the low degrees too
        assert not [(i, d) for i in range(1, IMAX) for d in range(MAX_D + 1)
                    if F.module(i).strand_dim(d) != ranks[(i, d)] + ranks[(i + 1, d)]]
        for i in range(1, IMAX + 1):
            d = F.differential(i)
            assert import_map_json(export_map_json(d), ring) == d
    assert strand_ranks[0] == strand_ranks[1]
