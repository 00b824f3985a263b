"""Divided-power translation of the zeta maps.

Non-decreasing tuples over 1..c of length k biject with divided-power
monomials v_1^{(j_1)}…v_c^{(j_c)} of total degree k by counting
multiplicities.  Under this bijection, left multiplication by Σ z_i ⊗ v_i*
on K ⊗ D(V), Tate's acyclic closure, has exactly the zeta matrices, with
contraction lowering one exponent at coefficient 1.  μ (by contraction,
`mu_terms`) is laid out on ζ's generators (by tuple merge, `zeta_terms`)
through the bijection, so the two maps are compared position by position.

The acyclic closure is F with its DG product, so the product's graded
commutativity and associativity on F's basis labels are checked here too.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, FreeModule, GradedMap
from .koszul import (CycleBasis, KoszulComplex, check, dg_product_basis, dg_product_elements,
                     hom_degree, tuple_sum_gens, verdict, wedge_cycle, zeta_terms)


def tuple_to_divided(t, c: int):
    """Multiplicity vector (j_1..j_c) of a non-decreasing tuple over 1..c."""
    exps = [0] * c
    for v in t:
        if not 1 <= v <= c:
            raise ValueError(f"entry {v} outside 1..{c}")
        exps[v - 1] += 1
    return tuple(exps)


def contract(exps, i: int):
    """v_i* · monomial: lower exponent i by one (coefficient 1), or None."""
    if exps[i - 1] == 0:
        return None
    out = list(exps)
    out[i - 1] -= 1
    return tuple(out)


def mu_terms(Z: CycleBasis, m, S):
    """Terms ((v_i*·m, T), p) of Σ_i (z_i ∧ e_S) ⊗ (v_i*·m)."""
    for i in range(1, len(m) + 1):
        m2 = contract(m, i)
        if m2 is not None:
            for T, p in wedge_cycle(Z.cycles[i - 1], S):
                yield (m2, T), p


def _on_zeta_gens(K: KoszulComplex, Z: CycleBasis, k: int, u: int, terms, label):
    """The map K_{u−1}^{⊕ tuples(c,k+1)} → K_u^{⊕ tuples(c,k)} on ζ_u^k's
    generators (`tuple_sum_gens`), each tuple w relabelled label(w), whose
    column at the generator (m, S) is terms(Z, m, S)."""
    source, target = (
        FreeModule(K.ring, [((label(w), S), t) for (w, S), t in tuple_sum_gens(Z, K.n, j, i)])
        for j, i in ((k + 1, u - 1), (k, u))
    )
    return GradedMap.from_columns(source, target, lambda lab: terms(Z, *lab))


def mu_component(K: KoszulComplex, Z: CycleBasis, k: int, u: int) -> GradedMap:
    """μ_u^k by contraction: the image of e_S in copy m is Σ_i z_i ∧ e_S in
    copy v_i*·m.  Its generators are ζ_u^k's with each tuple read as its
    divided monomial, so an entry of μ sits where the same entry of ζ does."""
    c = K.ring.codepth
    return _on_zeta_gens(K, Z, k, u, mu_terms, lambda w: tuple_to_divided(w, c))


def verify_mu_equals_zeta(K: KoszulComplex, Z: CycleBasis, k_range) -> dict:
    """μ^k and ζ^k have identical matrices under the tuple bijection;
    reported per (k,u) with the global sign observed: 1 when μ = ζ, −1 when
    μ = −ζ ≠ 0, None otherwise."""
    results = []
    for k in k_range:
        for u in range(1, K.n + 1):
            zeta = _on_zeta_gens(K, Z, k, u, zeta_terms, lambda w: w)
            mu = mu_component(K, Z, k, u)
            if mu.entries == zeta.entries:
                sign = 1
            elif mu.entries == (-zeta).entries:
                sign = -1
            else:
                sign = None
            results.append(check(f"mu^{k}_{u} = zeta^{k}_{u}", sign == 1,
                                 k=k, u=u, global_sign=sign))
    return verdict(results)


def verify_mu_square_zero(K: KoszulComplex, Z: CycleBasis, k: int) -> dict:
    """μ^k ∘ μ^{k+1} = 0 componentwise; the witnesses are the failing u."""
    failures = []
    for u in range(2, K.n + 1):
        if not mu_component(K, Z, k, u).compose(mu_component(K, Z, k + 1, u - 1)).is_zero():
            failures.append(u)
    return check(f"mu^{k} square-zero", not failures, witnesses=failures)


def acyclic_closure_square_zero(K: KoszulComplex, Z: CycleBasis, max_k: int = 3) -> dict:
    """The differential z⊗w ↦ ∂z⊗w + Σ_i (z_i∧z)⊗(v_i*·w) squares to zero
    on K ⊗ D^{≤max_k}(V): the complex whose degree-i generators are e_S ⊗ w
    with |S| + 2·deg w = i, each column made once, has no ∂² defect; the
    witnesses are the homological degrees of any defect."""
    c = K.ring.codepth
    gens = [[((tuple_to_divided(w, c), S), t) for k in range(min(i // 2, max_k) + 1)
             for (w, S), t in tuple_sum_gens(Z, K.n, k, i - 2 * k)]
            for i in range(K.n + 2 * max_k + 1)]
    defect = ChainComplex.from_columns(
        K.ring, gens, lambda lab: itertools.chain(K.column(lab), mu_terms(Z, *lab)),
        defect=None).square_defect()
    return check("acyclic-closure differential squares to zero", not defect,
                 witnesses=defect)


def verify_graded_commutativity(F, pairs) -> dict:
    """ab = (−1)^{|a||b|} ba on the given basis-label pairs of the
    resolution F (`resolution.assemble_f`)."""
    failures = []
    for a, b in pairs:
        i, i2 = hom_degree(a), hom_degree(b)
        ca, la = dg_product_basis(a, b)
        cb, lb = dg_product_basis(b, a)
        expected = ca if (i * i2) % 2 == 0 else -ca
        if (cb, lb if cb else None) != (expected, la if expected else None):
            failures.append((a, b))
    return check("graded commutativity", not failures, witnesses=failures)


def verify_associativity(F, triples) -> dict:
    """(ab)c = a(bc) on the given basis-label triples of F."""
    ring = F.ring
    one = ring.one()
    failures = []
    for a, b, cc in triples:
        ab = dg_product_elements(ring, {a: one}, {b: one})
        bc = dg_product_elements(ring, {b: one}, {cc: one})
        left = dg_product_elements(ring, ab, {cc: one})
        right = dg_product_elements(ring, {a: one}, bc)
        if left != right:
            failures.append((a, b, cc))
    return check("associativity", not failures, witnesses=failures)
