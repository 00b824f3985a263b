import itertools
from collections import Counter

from koszulator import dividedpowers
from koszulator.dividedpowers import (
    acyclic_closure_square_zero,
    contract,
    tuple_to_divided,
    verify_mu_equals_zeta,
    verify_mu_square_zero,
)
from koszulator.koszul import CycleBasis, subsets, tuples

from oracles import divided_to_tuple


def test_tuple_divided_round_trip():
    for c in range(1, 5):
        for k in range(7):
            for t in tuples(c, k):
                exps = tuple_to_divided(t, c)
                assert sum(exps) == k
                assert divided_to_tuple(exps) == t


def test_divided_monomials_order_matches_tuples():
    # the tuples of length k, in lex order, give every degree-k divided
    # monomial once, in decreasing lex order of the exponents
    for c in (2, 3):
        for k in (0, 1, 2, 3):
            exps = [tuple_to_divided(t, c) for t in tuples(c, k)]
            every = [e for e in itertools.product(range(k + 1), repeat=c) if sum(e) == k]
            assert exps == sorted(every, reverse=True)


def test_contract_lowers_one_exponent():
    assert contract((2, 1), 1) == (1, 1)
    assert contract((2, 0), 2) is None
    assert contract((0, 3), 2) == (0, 2)


def test_mu_equals_zeta(both):
    for ex in both:
        res = verify_mu_equals_zeta(ex.K, ex.Z, range(3))
        assert res["pass"]
        assert all(r["global_sign"] == 1 for r in res["checks"])


def test_mu_square_zero(both):
    for ex in both:
        for k in (1, 2):
            assert verify_mu_square_zero(ex.K, ex.Z, k)["pass"]


def test_acyclic_closure_differential(both):
    for ex in both:
        assert acyclic_closure_square_zero(ex.K, ex.Z, max_k=3)["pass"]


def test_mu_equals_zeta_catches_a_partial_sign_flip(ex3, monkeypatch):
    """Negating only the μ terms that land in a monomial with m_1 = 0 breaks
    μ = ζ on all 9 components.  For k = 0 every term lands in the monomial
    1, so those three read μ = −ζ; the others match neither sign."""
    original = dividedpowers.mu_terms

    def flipped(Z, m, S):
        for (m2, T), p in original(Z, m, S):
            yield (m2, T), (-p if m2[0] == 0 else p)

    monkeypatch.setattr(dividedpowers, "mu_terms", flipped)
    res = verify_mu_equals_zeta(ex3.K, ex3.Z, range(3))
    assert not res["pass"]
    assert sum(not r["pass"] for r in res["checks"]) == 9
    assert [r["global_sign"] for r in res["checks"]] == [-1] * 3 + [None] * 6


def test_mu_equals_zeta_reports_the_observed_sign(ex3, monkeypatch):
    original = dividedpowers.mu_terms
    monkeypatch.setattr(dividedpowers, "mu_terms",
                        lambda Z, m, S: (((m2, T), -p) for (m2, T), p in original(Z, m, S)))
    res = verify_mu_equals_zeta(ex3.K, ex3.Z, range(3))
    assert not res["pass"]
    assert all(r["global_sign"] == -1 for r in res["checks"])


def test_acyclic_closure_catches_a_tampered_cycle(ex3):
    bad_cycles = [list(z) for z in ex3.Z.cycles]
    bad_cycles[0][1] = bad_cycles[0][1] + ex3.ring.variable(1)
    bad_Z = CycleBasis(ex3.K, bad_cycles, list(ex3.Z.degrees))
    res = acyclic_closure_square_zero(ex3.K, bad_Z, max_k=3)
    assert not res["pass"] and res["witnesses"]


def test_acyclic_closure_makes_each_column_once(ex3, monkeypatch):
    """μ's terms on each generator e_S ⊗ w of K ⊗ D^{≤3}(V) are made once,
    for the column of the one differential leaving it; only e_∅ ⊗ 1, in
    homological degree 0, has none."""
    calls = Counter()
    original = dividedpowers.mu_terms

    def counting(Z, m, S):
        calls[(m, S)] += 1
        return original(Z, m, S)

    monkeypatch.setattr(dividedpowers, "mu_terms", counting)
    assert acyclic_closure_square_zero(ex3.K, ex3.Z, max_k=3)["pass"]
    c, n = ex3.ring.codepth, ex3.K.n
    gens = {(tuple_to_divided(w, c), S) for k in range(4) for w in tuples(c, k)
            for i in range(n + 1) for S in subsets(n, i)}
    assert set(calls) == gens - {((0,) * c, ())}
    assert set(calls.values()) == {1}
