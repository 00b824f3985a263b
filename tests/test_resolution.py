import random

import pytest

from koszulator import complexes
from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, cycles_from_generators
from koszulator.resolution import (
    assemble_f,
    basis_labels,
    betti_numbers,
    dg_product_basis,
    dg_product_elements,
    hom_degree,
    poincare_coefficients,
    spread_zeta,
    verify_associativity,
    verify_cross_construction,
    verify_graded_commutativity,
    verify_leibniz,
    verify_minimal_and_exact,
)
from koszulator.zetamaps import build_zeta

from oracles import ring_from_strings


def test_poincare_coefficients_closed_form():
    # (1+t)^3/(1-t^2)^c expanded by hand for small degrees
    assert poincare_coefficients(3, 2, 12) == [
        1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25,
    ]
    assert poincare_coefficients(3, 3, 10) == [
        1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66,
    ]
    with pytest.raises(ValueError):
        poincare_coefficients(3, 0, 4)


def test_betti_numbers_match_series(F2, F3):
    assert betti_numbers(F2) == poincare_coefficients(3, 2, 12)
    assert betti_numbers(F3) == poincare_coefficients(3, 3, 10)


def test_generator_twists(F2):
    # generator ((w,S)): twist = |S| + sum of relation degrees over w
    for i in (3, 4):
        for (w, S), twist in F2.complex.module(i).gens:
            assert twist == len(S) + 2 * len(w)
            assert len(S) + 2 * len(w) == i


def test_minimal_and_exact_small(F2):
    assert verify_minimal_and_exact(F2, 8)["pass"]


def _fresh_f(gens, i_max=6):
    """F over ℚ[x,y,z]/(gens) with empty rank memos."""
    ring = ring_from_strings(["x", "y", "z"], gens, RationalField())
    K = build_koszul(ring)
    return assemble_f(K, cycles_from_generators(K), i_max)


@pytest.fixture
def modular_primes(monkeypatch):
    """The prime of every strand rank the exactness certificate takes."""
    primes = []
    original = complexes.rank

    def counting(rows, field):
        primes.append(field.p)
        return original(rows, field)

    monkeypatch.setattr(complexes, "rank", counting)
    return primes


def test_exactness_certified_mod_p(strand_builds):
    # on the golden ℚ ring every exactness strand is proved by ranks mod p;
    # only H_0 in degree 0, which is k and not zero, takes exact ℚ ranks
    F = _fresh_f(["x^2", "y^2+z^2"])
    strand_builds.clear()
    assert verify_minimal_and_exact(F, 8)["pass"]
    fields = {field for _, _, field in strand_builds}
    assert fields == {RationalField(), complexes.MODULAR_FIELD}
    assert {d for _, d, field in strand_builds if field == RationalField()} == {0}


def test_prime_dividing_a_denominator_is_rejected(monkeypatch, modular_primes):
    gens = ["x^2", "y^2+1/7*z^2"]
    expected = verify_minimal_and_exact(_fresh_f(gens), 8)
    assert expected["pass"] and 7 not in modular_primes
    monkeypatch.setattr(complexes, "MODULAR_FIELD", PrimeField(7))
    assert verify_minimal_and_exact(_fresh_f(gens), 8) == expected
    assert 7 not in modular_primes  # no rank mod 7 was taken, let alone trusted


def test_unlucky_prime_falls_back(monkeypatch, modular_primes, strand_builds):
    # (x^2, xy) is no complete intersection, so mod 5 some ranks of F drop
    gens = ["x^2", "x*y+5*y^2"]
    expected = verify_minimal_and_exact(_fresh_f(gens), 8)
    monkeypatch.setattr(complexes, "MODULAR_FIELD", PrimeField(5))
    F = _fresh_f(gens)
    strand_builds.clear()
    assert verify_minimal_and_exact(F, 8) == expected
    assert expected["pass"] and 5 in modular_primes
    assert any(d and field == RationalField() for _, d, field in strand_builds)


def test_tampered_differential_fails_with_exact_witnesses():
    # ∂_3 = 0 keeps ∂² = 0 but leaves homology at i = 2 and 3
    F, G = _fresh_f(["x^2", "y^2+z^2"]), _fresh_f(["x^2", "y^2+z^2"])
    for H in (F, G):
        H.complex.differential(3).entries.clear()
    res = verify_minimal_and_exact(F, 8)
    exact = [(i, d) for i in range(1, G.i_max) for d in range(9)
             if G.complex.strand_homology_dim(i, d) != 0]
    assert not res["pass"] and exact
    assert res["checks"][2]["witnesses"] == exact


def test_cross_construction(F2, F3, tower2, tower3):
    assert verify_cross_construction(F2, tower2, 7)["pass"]
    assert verify_cross_construction(F3, tower3, 7)["pass"]


def test_spread_zeta_small(both):
    for ex in both:
        c = ex.ring.codepth
        zero = ex.ring.zero()
        seeds = {
            u: [
                [build_zeta(ex.K, ex.Z, 0).component(u).entry(r, col)
                 for col in range(build_zeta(ex.K, ex.Z, 0).component(u).source.rank)]
                for r in range(build_zeta(ex.K, ex.Z, 0).component(u).target.rank)
            ]
            for u in range(1, c + 1)
        }
        for k in (1, 2):
            zeta = build_zeta(ex.K, ex.Z, k)
            for u in range(1, c + 1):
                m = zeta.component(u)
                dense = [
                    [m.entry(r, col) for col in range(m.source.rank)]
                    for r in range(m.target.rank)
                ]
                assert spread_zeta(seeds[u], c, k, zero) == dense


def test_dg_product_basis_wedge_sign():
    # pure Koszul classes multiply by the wedge sign
    coeff, label = dg_product_basis(((), (1,)), ((), (2,)))
    assert (coeff, label) == (1, ((), (1, 2)))
    coeff, label = dg_product_basis(((), (2,)), ((), (1,)))
    assert (coeff, label) == (-1, ((), (1, 2)))
    assert dg_product_basis(((), (1,)), ((), (1,)))[0] == 0


def test_dg_product_divided_power_coefficient():
    # repeated tuple values pick up a binomial multiplicity:
    # the square of ((1), ∅) is 2·((1,1), ∅)
    coeff, label = dg_product_basis(((1,), ()), ((1,), ()))
    assert (coeff, label) == (2, ((1, 1), ()))
    coeff, label = dg_product_basis(((1, 1), ()), ((1,), ()))
    assert (coeff, label) == (3, ((1, 1, 1), ()))
    coeff, label = dg_product_basis(((1,), ()), ((2,), ()))
    assert (coeff, label) == (1, ((1, 2), ()))


def test_hom_degree():
    assert hom_degree(((), (1, 2))) == 2
    assert hom_degree(((1, 2), (3,))) == 5


def test_leibniz_exhaustive_low_degrees(F2):
    pairs = [
        (a, b)
        for i in range(5)
        for j in range(5 - i)
        for a in basis_labels(F2, i)
        for b in basis_labels(F2, j)
    ]
    assert verify_leibniz(F2, pairs)["pass"]


def test_commutativity_and_associativity_sampled(F3):
    rng = random.Random(7)
    labels = [lab for i in range(5) for lab in basis_labels(F3, i)]
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(40)]
    pairs = [(a, b) for a, b in pairs if hom_degree(a) + hom_degree(b) <= 10]
    assert verify_graded_commutativity(F3, pairs)["pass"]
    triples = []
    while len(triples) < 20:
        a, b, c = (rng.choice(labels) for _ in range(3))
        if hom_degree(a) + hom_degree(b) + hom_degree(c) <= 10:
            triples.append((a, b, c))
    assert verify_associativity(F3, triples)["pass"]


def test_dg_product_elements_bilinear(F2, ex2):
    ring = ex2.ring
    x = ring.variable(0)
    a = {((), (1,)): x}
    b = {((), (2,)): ring.one()}
    out = dg_product_elements(F2, a, b)
    assert list(out) == [((), (1, 2))]
    assert out[((), (1, 2))] == ring.normal_form(x)
