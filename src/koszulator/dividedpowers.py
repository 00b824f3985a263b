"""Divided-power translation of the zeta maps.

Non-decreasing tuples over 1..c of length k biject with divided-power
monomials v_1^{(j_1)}…v_c^{(j_c)} of total degree k by counting
multiplicities.  Under this bijection, left multiplication by Σ z_i ⊗ v_i*
on K ⊗ D(V) has exactly the zeta matrices, with contraction lowering one
exponent at coefficient 1.
"""

from __future__ import annotations

import itertools

from .complexes import collect
from .koszul import CycleBasis, KoszulComplex, subsets, wedge_cycle
from .zetamaps import tuples, zeta_component_entries


def tuple_to_divided(t, c: int):
    """Multiplicity vector (j_1..j_c) of a non-decreasing tuple over 1..c."""
    exps = [0] * c
    for v in t:
        if not 1 <= v <= c:
            raise ValueError(f"entry {v} outside 1..{c}")
        exps[v - 1] += 1
    return tuple(exps)


def divided_to_tuple(exps):
    out = []
    for i, e in enumerate(exps, 1):
        if e < 0:
            raise ValueError("negative exponent")
        out.extend([i] * e)
    return tuple(out)


def divided_monomials(c: int, k: int):
    """Degree-k divided monomials in the order induced by tuple lex order."""
    return [tuple_to_divided(t, c) for t in tuples(c, k)]


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


def mu_component_entries(K: KoszulComplex, Z: CycleBasis, k: int, u: int):
    """Entries of μ_u^k keyed ((m',T),(m,S)) over divided monomials: the
    image of e_S in copy m is Σ_i z_i ∧ e_S in copy v_i*·m."""
    return collect(
        (((tl, (m, S)), p)
         for m in divided_monomials(K.ring.codepth, k + 1)
         for S in subsets(K.n, u - 1)
         for tl, p in mu_terms(Z, m, S)),
        K.ring,
    )


def verify_mu_equals_zeta(K: KoszulComplex, Z: CycleBasis, k_range) -> dict:
    """μ^k and ζ^k have identical matrices under the tuple bijection (the
    observed global sign is +1); reported per (k,u)."""
    c = K.ring.codepth
    results = []
    for k in k_range:
        for u in range(1, K.n + 1):
            zeta = zeta_component_entries(K, Z, k, u)
            mu = mu_component_entries(K, Z, k, u)
            translated = {
                ((tuple_to_divided(v, c), T), (tuple_to_divided(w, c), S)): p
                for ((v, T), (w, S)), p in zeta.items()
            }
            results.append(
                {"k": k, "u": u, "pass": translated == mu, "global_sign": 1}
            )
    return {"pass": all(r["pass"] for r in results), "per_component": results}


def verify_mu_square_zero(K: KoszulComplex, Z: CycleBasis, k: int) -> bool:
    """μ^k ∘ μ^{k+1} = 0 componentwise."""
    ring = K.ring
    for u in range(2, K.n + 1):
        inner = mu_component_entries(K, Z, k + 1, u - 1)
        outer = mu_component_entries(K, Z, k, u)
        if collect(
            (((tgt, src), q * p)
             for (mid, src), p in inner.items()
             for (tgt, mid2), q in outer.items()
             if mid2 == mid),
            ring,
        ):
            return False
    return True


def acyclic_closure_square_zero(K: KoszulComplex, Z: CycleBasis, max_k: int = 3) -> bool:
    """The differential z⊗w ↦ ∂z⊗w + Σ_i (z_i∧z)⊗(v_i*·w) squares to zero
    on K ⊗ D^{≤max_k}(V)."""
    ring = K.ring
    c = ring.codepth

    def diff(elem):
        # elem: {(exps, S): Polynomial}
        return collect(
            ((key, p * q)
             for label, p in elem.items()
             for key, q in itertools.chain(K.column(label), mu_terms(Z, *label))),
            ring,
        )

    one = ring.one()
    for k in range(max_k + 1):
        for m in divided_monomials(c, k):
            for i in range(K.n + 1):
                for S in subsets(K.n, i):
                    if diff(diff({(m, S): one})):
                        return False
    return True
