import itertools
import random

import pytest

from koszulator import complexes, resolution
from koszulator.complexes import GradedMap
from koszulator.fields import FieldError, PrimeField, RationalField
from koszulator.conetower import verify_cross_construction
from koszulator.dividedpowers import verify_associativity, verify_graded_commutativity
from koszulator.koszul import (build_koszul, cycles_from_generators, dg_product_basis,
                               dg_product_elements, hom_degree)
from koszulator.resolution import (
    assemble_f,
    basis_labels,
    betti_numbers,
    poincare_coefficients,
    verify_leibniz,
    verify_minimal_and_exact,
)
from koszulator.zetamaps import build_zeta, spread_zeta

import oracles
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
        for (w, S), twist in F2.module(i).gens:
            assert twist == len(S) + 2 * len(w)
            assert len(S) + 2 * len(w) == i


def test_minimal_and_exact_small(F2):
    assert verify_minimal_and_exact(F2)["pass"]


def _fresh_f(gens, i_max=6, names=("x", "y", "z"), field=RationalField()):
    """F over field[names]/(gens) with empty rank memos."""
    ring = ring_from_strings(list(names), gens, field)
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
    F = _fresh_f(["x^2", "y^2+z^2"])

    def recording(self, d, field=None):
        over = "F" if self.source.ring is F.ring else "F̄"
        built.append((over, d, field or self.source.ring.field))
        return original(self, d, field)

    monkeypatch.setattr(GradedMap, "strand_matrix", recording)
    assert verify_minimal_and_exact(F)["pass"]
    assert {field for _, _, field in built} == {RationalField(), complexes.MODULAR_FIELD}
    assert {(over, d) for over, d, field in built if field == RationalField()} == {
        ("F", 0), ("F̄", 1)}


@pytest.mark.parametrize("gens, p", [
    # the 1/7 sits on x*y, so it survives in F̄ = F/z·F as well as in F
    (["x^2", "y^2+1/7*x*y+z^2"], 7),
    # no entry of F has a 5 below the line, but R's normal forms do
    # (x^2 = -yz/5), so only a strand's blocks meet it; R is Artinian, so
    # these are F's own strands
    (["5*x^2+y*z", "y^2", "z^2"], 5)], ids=["entry", "normal-form"])
def test_prime_dividing_a_denominator_falls_back(monkeypatch, modular_primes, gens, p):
    expected = verify_minimal_and_exact(_fresh_f(gens))
    assert expected["pass"] and p not in modular_primes
    monkeypatch.setattr(complexes, "MODULAR_FIELD", PrimeField(p))
    builds = []  # (ring, map, d, reduced) of each strand mod p, in order
    original = GradedMap.strand_matrix

    def recording(self, d, field=None):
        if field != PrimeField(p):
            return original(self, d, field)
        try:
            out = original(self, d, field)
        except FieldError:
            builds.append((self.source.ring, self, d, False))
            raise
        builds.append((self.source.ring, self, d, True))
        return out

    monkeypatch.setattr(GradedMap, "strand_matrix", recording)
    assert verify_minimal_and_exact(_fresh_f(gens)) == expected
    # a strand is reduced mod p, and its rank mod p taken, only if none of
    # its denominators is divisible by p
    for _, gmap, d, reduced in builds:
        rows = original(gmap, d)[0]
        assert reduced == all(a.denominator % p for row in rows for a in row.values())
    # the first FieldError on a complex turns its modular path off
    failed = {ring for ring, *_, reduced in builds if not reduced}
    assert failed
    for ring in failed:
        attempts = [reduced for r, *_, reduced in builds if r is ring]
        assert attempts.index(False) == len(attempts) - 1


def test_unlucky_prime_falls_back(monkeypatch, modular_primes, strand_builds):
    # (x^2, xy) is no complete intersection, so mod 5 some ranks of F drop
    gens = ["x^2", "x*y+5*y^2"]
    expected = verify_minimal_and_exact(_fresh_f(gens))
    monkeypatch.setattr(complexes, "MODULAR_FIELD", PrimeField(5))
    F = _fresh_f(gens)
    strand_builds.clear()
    assert verify_minimal_and_exact(F) == expected
    assert expected["pass"] and 5 in modular_primes
    assert any(d and field == RationalField() for _, d, field in strand_builds)


def _reduced(F):
    """F̄ = F/(ℓ)·F for the cut the certificate finds on F's ring."""
    return resolution._reduce(F, resolution._artinian_cut(F.ring)[0])


def test_tampered_differential_fails_with_exact_witnesses():
    # ∂_3 = 0 keeps ∂² = 0 but leaves homology at i = 2 and 3; the witnesses
    # are the strands of F̄ = F/z·F off Tor(k, R̄), by exact ranks
    F, G = _fresh_f(["x^2", "y^2+z^2"]), _fresh_f(["x^2", "y^2+z^2"])
    for H in (F, G):
        H.differential(3).entries.clear()
    res = verify_minimal_and_exact(F)
    Gb, window = _reduced(G), res["checks"][2]["window"]
    exact = [(i, d) for i in range(1, G.top) for d in range(window + 1)
             if Gb.strand_homology_dim(i, d) != ((i, d) == (1, 1))]
    assert not res["pass"] and exact
    assert res["checks"][2]["witnesses"] == exact


@pytest.fixture
def reductions(monkeypatch):
    """Every ring R/(ℓ) that the exactness check builds while the test
    runs, whether or not it keeps it; `_forms` reads their ℓ."""
    tried = []
    original = resolution.GradedQuotientRing

    def recording(var_names, generators, field):
        tried.append(original(var_names, generators, field))
        return tried[-1]

    monkeypatch.setattr(resolution, "GradedQuotientRing", recording)
    return tried


def _forms(rings):
    """The linear relations ℓ of each ring, as strings."""
    return [[g.to_string(r.var_names) for g in r.generators if g.degree() == 1] for r in rings]


def _tampered(gens, tamper):
    """F over ℚ[x,y,z]/(gens) with tamper(differentials) applied and ∂²
    composed again."""
    F = _fresh_f(gens)
    tamper(F.differentials)
    return complexes.ChainComplex(F.ring, F.modules, F.differentials, defect=None)


def _double_first_entry(diffs):
    # ∂_2's first column is a Koszul cycle; doubling one coordinate breaks it
    pos = min(diffs[2].entries)
    diffs[2].entries[pos] = diffs[2].entries[pos] + diffs[2].entries[pos]


@pytest.mark.parametrize("tamper, failing", [
    # ∂_3 = 0 keeps ∂² = 0 and H_0 = k: F/z·F shows the homology at i = 2, 3
    (lambda diffs: diffs[3].entries.clear(), "exact in homological degrees 1..5, "
     "every internal degree"),
    # with ∂² ≠ 0, or with ∂_1 = 0 and so H_0 = R, the argument through
    # F/z·F does not hold, and the check that fails says so
    (_double_first_entry, "differential squares to zero"),
    (lambda diffs: diffs[1].entries.clear(), "H_0 is the residue field in internal degree 0"),
], ids=["cleared-d3", "d-squared-nonzero", "cleared-d1"])
def test_negative_controls_fail_on_the_same_cut(tamper, failing, reductions):
    # the cut depends on R alone: z, whatever F is
    res = verify_minimal_and_exact(_tampered(["x^2", "y^2+z^2"], tamper))
    assert failing in [ch["check"] for ch in res["checks"] if not ch["pass"]]
    assert res["checks"][2]["cut"] == ["z ↦ 0"]
    assert _forms(reductions) == [["z"]]


def test_reduction_by_a_variable_is_used(strand_builds, reductions):
    # golden2 = ℚ[x,y,z]/(x^2, y^2+z^2): z is regular, so F/z·F over
    # R/(z) ≅ ℚ[x,y]/(x^2, y^2) proves F exact; of F only ∂_1 is ranked, for H_0
    F = _fresh_f(["x^2", "y^2+z^2"])
    strand_builds.clear()
    assert verify_minimal_and_exact(F)["pass"]
    assert _forms(reductions) == [["z"]]
    higher = {id(F.differential(i)) for i in range(2, F.top + 1)}
    assert not [key for key, _, _ in strand_builds if key in higher]


def test_artinian_ring_takes_the_full_check(strand_builds, reductions):
    # golden3 has codepth 3 in 3 variables: no variable is regular
    F = _fresh_f(["x^2+y^2", "x*z", "z^2+x*y"])
    strand_builds.clear()
    assert verify_minimal_and_exact(F)["pass"]
    assert _forms(reductions) == []
    assert {id(F.differential(3))} & {key for key, _, _ in strand_builds}


def test_zero_divisor_variable_is_skipped(reductions):
    # z·z = 0, so z is a zero divisor: R/(z) has too large a Hilbert
    # function and is passed over; y is taken
    F = _fresh_f(["z^2", "x^2+y^2"], 8)
    res = verify_minimal_and_exact(F)
    assert _forms(reductions) == [["z"], ["y"]]
    assert res["pass"] and res["checks"][2]["cut"] == ["y ↦ 0"]
    Fb = _reduced(F)
    assert _forms([Fb.ring]) == [["y"]]
    assert [Fb.module(i).gens for i in range(9)] == [F.module(i).gens for i in range(9)]


def test_the_cut_leaves_an_artinian_ring(reductions):
    # cutting z leaves (x², xy), which is not Artinian (y^d survives), so
    # z is passed over although no generator vanishes; y leaves (x², z²)
    res = verify_minimal_and_exact(_fresh_f(["x^2+y*z", "x*y+z^2"], 4))
    assert _forms(reductions) == [["z"], ["y"]]
    assert res["pass"] and res["checks"][2]["cut"] == ["y ↦ 0"]


@pytest.mark.parametrize("gens, names, field, i_max, cut, window", [
    # quintic2-q: F_5's twists reach 11 and s = 8
    (["x^5", "y^5+z^5"], "xyz", RationalField(), 6, ["z ↦ 0"], 19),
    # m = 2 and m = 3: Tor(k, R̄) = Λ(k^m) sits on the diagonal, and (b)
    # ranks F itself at (i, i + 1) for i < m
    (["x^2+y*z", "y^2+z*w"], "xyzw", RationalField(), 5, ["w ↦ 0", "z ↦ 0"], 6),
    (["x^3", "y^2+z*w"], "xyzwv", PrimeField(32003), 5, ["v ↦ 0", "w ↦ 0", "z ↦ 0"], 9),
], ids=["quintic2-q", "m2-q", "m3-p"])
def test_certified_in_every_degree(gens, names, field, i_max, cut, window, monkeypatch):
    res = verify_minimal_and_exact(_fresh_f(gens, i_max, names, field))
    exact = res["checks"][2]
    assert res["pass"] and exact["check"].endswith("every internal degree")
    assert (exact["cut"], exact["window"], exact["partial"]) == (cut, window, False)
    # without ζ, F is a sum of copies of K, and F̄ has the homology it keeps
    monkeypatch.setattr(resolution, "zeta_terms", lambda Z, w, S: ())
    res = verify_minimal_and_exact(_fresh_f(gens, i_max, names, field))
    assert not res["pass"] and res["checks"][2]["witnesses"]


def _without(gens, label, names="xyz"):
    """F up to i_max = 2 over ℚ[names]/(gens), without the generator
    `label` of F_2: ∂² stays 0 and one class of H_1(F) in degree 2 is left
    unbounded."""
    ring = ring_from_strings(list(names), gens, RationalField())
    K = build_koszul(ring)
    Z = cycles_from_generators(K)
    F = assemble_f(K, Z, 2)
    return complexes.ChainComplex.from_columns(
        ring, [[g for g in F.module(i).gens if g[0] != label] for i in range(3)],
        lambda lab: itertools.chain(K.column(lab), resolution.zeta_terms(Z, *lab)))


def test_one_extra_class_in_the_cut_fails():
    # golden2 without e_xy: xe_y − ye_x is a cycle no boundary reaches, and
    # it is F̄'s one extra class, in H_1(F̄)_2
    res = verify_minimal_and_exact(_without(["x^2", "y^2+z^2"], ((), (1, 2))))
    assert not res["pass"] and res["checks"][2]["witnesses"] == [(1, 2)]


def test_a_class_the_cut_hides_fails_by_b():
    # ℚ[x,y,z]/(x²), m = 2, without e_yz: ye_z − ze_y gives H_1(F)_2 ≠ 0,
    # which d² from E_{2,0} = k kills in the double complex, so F̄ shows
    # nothing at i = 1; only (b), on F itself, sees it
    F = _without(["x^2"], ((), (2, 3)))
    res = verify_minimal_and_exact(F)
    assert res["checks"][2]["cut"] == ["z ↦ 0", "y ↦ 0"]
    assert not res["pass"] and res["checks"][2]["witnesses"] == [(1, 2)]
    Fb = _reduced(F)
    assert [Fb.strand_homology_dim(1, d) for d in range(3)] == [0, 2, 0]


def test_cross_construction(F2, F3, tower2, tower3):
    assert verify_cross_construction(F2, tower2, 7)["pass"]
    assert verify_cross_construction(F3, tower3, 7)["pass"]


def test_spread_zeta_small(both):
    for ex in both:
        c = ex.ring.codepth
        zero = oracles.zero(ex.ring)
        seeds = {
            u: [
                [oracles.entry(build_zeta(ex.K, ex.Z, 0).component(u), r, col)
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
                    [oracles.entry(m, r, col) for col in range(m.source.rank)]
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


def _leibniz_defect(F, a, b):
    """∂(ab) − ∂(a)b − (−1)^{|a|} a∂(b) ≠ 0, with every product taken
    through the ring by `dg_product_elements`."""
    ring, one = F.ring, F.ring.one()
    i, j = hom_degree(a), hom_degree(b)
    lhs = F.differential(i + j).apply(dg_product_elements(ring, {a: one}, {b: one}))
    da = F.differential(i).apply({a: one})
    db = F.differential(j).apply({b: one})
    rhs = {}
    for lab, p in [*dg_product_elements(ring, da, {b: one}).items(),
                   *((lab, -p if i % 2 else p)
                     for lab, p in dg_product_elements(ring, {a: one}, db).items())]:
        rhs[lab] = rhs[lab] + p if lab in rhs else p
    return lhs != {lab: p for lab, p in rhs.items() if p.terms}


def test_leibniz_fails_on_a_tampered_differential():
    # doubling one entry of ∂_2 breaks the product rule; the witnesses are
    # those found with every product taken through the ring
    F = _tampered(["x^2", "y^2+z^2"], _double_first_entry)
    pairs = [(a, b) for i in range(5) for j in range(5 - i)
             for a in basis_labels(F, i) for b in basis_labels(F, j)]
    res = verify_leibniz(F, pairs)
    assert not res["pass"] and res["witnesses"]
    assert res["witnesses"] == [(a, b) for a, b in pairs if _leibniz_defect(F, a, b)]
    F2 = _fresh_f(["x^2", "y^2+z^2"])
    assert not [(a, b) for a, b in pairs if _leibniz_defect(F2, a, b)]


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


def test_dg_product_elements_bilinear(ex2):
    ring = ex2.ring
    x = ring.variable(0)
    a = {((), (1,)): x}
    b = {((), (2,)): ring.one()}
    out = dg_product_elements(ring, a, b)
    assert list(out) == [((), (1, 2))]
    assert out[((), (1, 2))] == ring.normal_form(x)
