import random

import pytest

from koszulator import complexes, resolution
from koszulator.complexes import GradedMap
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

    def counting(rows, field, ceiling=None):
        primes.append(field.p)
        return original(rows, field, ceiling)

    monkeypatch.setattr(complexes, "rank", counting)
    return primes


def test_exactness_certified_mod_p(monkeypatch):
    # on the golden ℚ ring every strand expected to vanish, of F or of
    # F̄ = F/z·F, is proved by ranks mod p; exact ℚ ranks are taken only where
    # the homology is k: H_0(F) in degree 0 and H_1(F̄) in degree 1
    built = []
    original = GradedMap.strand_matrix

    def recording(self, d, field=None):
        built.append((self.source.ring.nvars, d, field or self.source.ring.field))
        return original(self, d, field)

    F = _fresh_f(["x^2", "y^2+z^2"])
    monkeypatch.setattr(GradedMap, "strand_matrix", recording)
    assert verify_minimal_and_exact(F, 8)["pass"]
    assert {field for _, _, field in built} == {RationalField(), complexes.MODULAR_FIELD}
    assert {(n, d) for n, d, field in built if field == RationalField()} == {(3, 0), (2, 1)}


def test_prime_dividing_a_denominator_is_rejected(monkeypatch, modular_primes):
    # the 1/7 sits on x*y, so it survives in F̄ = F/z·F as well as in F
    gens = ["x^2", "y^2+1/7*x*y+z^2"]
    F = _fresh_f(gens)
    assert any(c.denominator == 7 and not m[2] for dmap in F.complex.differentials.values()
               for p in dmap.entries.values() for m, c in p.terms.items())
    expected = verify_minimal_and_exact(F, 8)
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


@pytest.fixture
def reductions(monkeypatch):
    """The variable names of every ring R/x_v·R that the exactness check
    tries to build while the test runs, whether or not it gives a ring."""
    tried = []
    original = resolution.GradedQuotientRing

    def recording(var_names, generators, field):
        tried.append(var_names)
        return original(var_names, generators, field)

    monkeypatch.setattr(resolution, "GradedQuotientRing", recording)
    return tried


def _full_check(F, max_d):
    """verify_minimal_and_exact with every strand of F checked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_mod_variable", lambda *args: None)
        return verify_minimal_and_exact(F, max_d)


def _tampered(gens, tamper):
    """F over ℚ[x,y,z]/(gens) with tamper(differentials) applied and ∂²
    composed again."""
    F = _fresh_f(gens)
    C = F.complex
    tamper(C.differentials)
    F.complex = complexes.ChainComplex(C.ring, C.modules, C.differentials, check=False)
    return F


def _double_first_entry(diffs):
    # ∂_2's first column is a Koszul cycle; doubling one coordinate breaks it
    pos = min(diffs[2].entries)
    diffs[2].entries[pos] = diffs[2].entries[pos] + diffs[2].entries[pos]


@pytest.mark.parametrize("tamper, failing, tried", [
    # ∂_3 = 0 keeps ∂² = 0 and H_0 = k: F/z·F is built, shows the homology
    # at i = 2 and 3, and every strand of F is checked
    (lambda diffs: diffs[3].entries.clear(), "exact in homological degrees 1..5, "
     "internal degrees ≤ 8", [["x", "y"]]),
    # with ∂² ≠ 0, or with ∂_1 = 0 and so H_0 = R, the argument through
    # F/z·F does not hold, and no R/x_v·R is tried
    (_double_first_entry, "differential squares to zero", []),
    (lambda diffs: diffs[1].entries.clear(), "H_0 is the residue field in internal degree 0", []),
], ids=["cleared-d3", "d-squared-nonzero", "cleared-d1"])
def test_negative_controls_give_the_full_checks_witnesses(tamper, failing, tried, reductions):
    gens = ["x^2", "y^2+z^2"]
    res = verify_minimal_and_exact(_tampered(gens, tamper), 8)
    assert failing in [ch["check"] for ch in res["checks"] if not ch["pass"]]
    assert res["checks"][2]["witnesses"]
    assert reductions == tried
    assert res == _full_check(_tampered(gens, tamper), 8)


def test_reduction_by_a_variable_is_used(strand_builds, reductions):
    # golden2 = ℚ[x,y,z]/(x^2, y^2+z^2): z is regular, so F/z·F over
    # ℚ[x,y]/(x^2, y^2) proves F exact; of F only ∂_1 is ranked, for H_0
    F = _fresh_f(["x^2", "y^2+z^2"])
    strand_builds.clear()
    assert verify_minimal_and_exact(F, 8)["pass"]
    assert reductions == [["x", "y"]]
    higher = {id(F.complex.differential(i)) for i in range(2, F.i_max + 1)}
    assert not [key for key, _, _ in strand_builds if key in higher]


def test_artinian_ring_takes_the_full_check(strand_builds, reductions):
    # golden3 has codepth 3 in 3 variables: no variable is regular
    F = _fresh_f(["x^2+y^2", "x*z", "z^2+x*y"])
    strand_builds.clear()
    assert verify_minimal_and_exact(F, 8)["pass"]
    assert reductions == []
    assert {id(F.complex.differential(3))} & {key for key, _, _ in strand_builds}


def test_zero_divisor_variable_is_skipped(reductions):
    # z^2 = 0 at z = 0, so z is a zero divisor and is passed over; y is taken
    gens = ["z^2", "x^2+y^2"]
    F = _fresh_f(gens, 8)
    res = verify_minimal_and_exact(F, 12)
    assert reductions == [["x", "y"], ["x", "z"]]
    assert res["pass"] and res == _full_check(_fresh_f(gens, 8), 12)
    Fb = resolution._mod_variable(F.complex, 12)
    assert Fb.ring.var_names == ["x", "z"]
    assert [Fb.module(i).gens for i in range(9)] == [F.complex.module(i).gens for i in range(9)]


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
