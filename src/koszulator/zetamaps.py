"""Multi-index combinatorics and the zeta chain maps.

A multi-index is a non-decreasing tuple with entries in 1..c, ordered
lexicographically.  The zeta map for parameter k sends the shifted direct
sum of Koszul complexes indexed by (k+1)-tuples to the sum indexed by
k-tuples: the component landing in copy v collects z_j ∧ (copy sorted(v+j))
over j = 1..c.  Homology-level matrices are pure sign combinatorics and are
built independently of any ring.
"""

from __future__ import annotations

import itertools
import math

from .complexes import ChainComplex, ChainMap, GradedMap
from .koszul import CycleBasis, KoszulComplex, subsets, wedge_cycle
from .linalg import rank


def tuple_count(c: int, k: int) -> int:
    return math.comb(k + c - 1, c - 1) if k >= 0 else 0


def tuples(c: int, k: int):
    """All non-decreasing k-tuples over 1..c in lex order; empty for k < 0."""
    if k < 0:
        return []
    return list(itertools.combinations_with_replacement(range(1, c + 1), k))


def tuple_sum_gens(Z: CycleBasis, n: int, k: int, i: int):
    """Generators ((w, S), i + Σ deg z_{w_t}) of K_i^{⊕ tuples(c,k)} over n
    variables, tuple-major: the copy w of e_S is twisted by the degrees of
    the cycles that w names.  This is the one place the twist rule lives."""
    return [
        ((w, S), i + sum(Z.degrees[t - 1] for t in w))
        for w in tuples(Z.K.ring.codepth, k)
        for S in subsets(n, i)
    ]


def koszul_tuple_sum(K: KoszulComplex, Z: CycleBasis, k: int) -> ChainComplex:
    """K^{⊕ tuples(c,k)} on the generators `tuple_sum_gens`."""
    return ChainComplex.from_columns(
        K.ring, [tuple_sum_gens(Z, K.n, k, i) for i in range(K.n + 1)], K.column, check=False)


def zeta_terms(Z: CycleBasis, w, S):
    """Terms ((v, T), p) of ζ on the generator (w, S): for each distinct value
    j of w, drop one j from w and wedge z_j into e_S."""
    for pos, j in enumerate(w):
        if j not in w[:pos]:
            v = w[:pos] + w[pos + 1:]
            for T, p in wedge_cycle(Z.cycles[j - 1], S):
                yield (v, T), p


class ZetaMap:
    """ζ^k as a chain map ΣK^{⊕C(k+c,c−1)} → K^{⊕C(k+c−1,c−1)}."""

    def __init__(self, K: KoszulComplex, Z: CycleBasis, k: int, check: bool = True):
        self.K = K
        self.Z = Z
        self.k = k
        self.target = koszul_tuple_sum(K, Z, k)
        self.source = koszul_tuple_sum(K, Z, k + 1).shift(1)
        self.chain_map = ChainMap.from_columns(
            self.source, self.target, lambda label: zeta_terms(Z, *label), check)

    def component(self, u: int) -> GradedMap:
        return self.chain_map.component(u)

    def matrix_strings(self, u: int):
        """Dense entry strings of ζ_u^k, for goldens and exports."""
        from .render import matrix_strings  # render loads only when asked for
        return matrix_strings(self.component(u))


def build_zeta(K: KoszulComplex, Z: CycleBasis, k: int) -> ZetaMap:
    return ZetaMap(K, Z, k)


def verify_zeta_chain(zeta: ZetaMap) -> dict:
    """∂^{⊕}∘ζ_u = −ζ_{u−1}∘∂^{⊕} for all u (the source carries −∂)."""
    witnesses = zeta.chain_map.chain_defect()
    return {
        "check": f"zeta^{zeta.k} chain map",
        "pass": not witnesses,
        "witnesses": witnesses,
    }


def verify_zeta_square_zero(zeta_k: ZetaMap, zeta_k1: ZetaMap) -> dict:
    """ζ^k ∘ Σζ^{k+1} = 0."""
    if zeta_k1.k != zeta_k.k + 1:
        raise ValueError("need consecutive k")
    witnesses = []
    for u in range(1, zeta_k.K.n + 1):
        inner = zeta_k1.component(u - 1)
        outer = zeta_k.component(u)
        if not outer.compose(inner).is_zero():
            witnesses.append(u)
    return {
        "check": f"zeta^{zeta_k.k} ∘ Σ zeta^{zeta_k1.k} = 0",
        "pass": not witnesses,
        "witnesses": witnesses,
    }


# -- homology level ----------------------------------------------------------


def homology_basis(c: int, k: int, u: int):
    """(tuple, subset) index pairs for A_u^{⊕ tuples(c,k)}, lex order."""
    return [(w, S) for w in tuples(c, k) for S in subsets(c, u)]


def homology_zeta_matrix(c: int, k: int, u: int):
    """Integer matrix of [ζ_u^k] : A_{u−1}^{⊕C(k+c,c−1)} → A_u^{⊕C(k+c−1,c−1)}.

    Entry for target (v,T) and source (w,S): (−1)^{#{s∈S : s<j}} when
    T = S∪{j} and sorted(v+(j,)) = w, else 0.  Ring-independent.
    """
    rows_idx = homology_basis(c, k, u)
    cols_idx = homology_basis(c, k + 1, u - 1)
    col_pos = {lab: i for i, lab in enumerate(cols_idx)}
    matrix = [[0] * len(cols_idx) for _ in rows_idx]
    for r, (v, T) in enumerate(rows_idx):
        for pos, j in enumerate(T):
            S = T[:pos] + T[pos + 1:]
            w = tuple(sorted(v + (j,)))
            matrix[r][col_pos[(w, S)]] = (-1) ** pos
    return matrix


def sequence_matrix(c: int, k: int, u: int):
    """Map at position u of the homology exact sequence with top index k:
    [ζ_u^{k−u+1}] : A_{u−1}^{⊕C(k−u+1+c, c−1)} → A_u^{⊕C(k−u+c, c−1)}."""
    return homology_zeta_matrix(c, k - u + 1, u)


def int_rank(matrix, field) -> int:
    """Rank over `field` of a dense integer matrix, such as a [ζ] matrix."""
    return rank([{j: a for j, a in enumerate(map(field.of, row)) if a} for row in matrix],
                field)


def verify_exact_sequence(c: int, k: int, field) -> dict:
    """Rank verification of the exact sequence 0 → A_0^{⊕C(k+c,c−1)} → … →
    A_c^{⊕C(k,c−1)} → 0."""
    dims = [math.comb(c, u) * tuple_count(c, k + 1 - u) for u in range(c + 1)]
    mats = {u: sequence_matrix(c, k, u) for u in range(1, c + 1)}
    ranks = {u: int_rank(mats[u], field) for u in range(1, c + 1)}
    checks = []
    checks.append(
        {
            "check": "first map injective",
            "pass": ranks[1] == dims[0],
            "expected": dims[0],
            "actual": ranks[1],
        }
    )
    for u in range(1, c):
        checks.append(
            {
                "check": f"exactness at position {u}",
                "pass": ranks[u] + ranks[u + 1] == dims[u],
                "expected": dims[u],
                "actual": ranks[u] + ranks[u + 1],
            }
        )
    checks.append(
        {
            "check": "last map surjective",
            "pass": ranks[c] == dims[c],
            "expected": dims[c],
            "actual": ranks[c],
        }
    )
    # consecutive composites vanish: rows of mats[u+1] times columns of mats[u]
    for u in range(1, c):
        zero = all(sum(x * y for x, y in zip(row, col)) == 0
                   for row in mats[u + 1] for col in zip(*mats[u]))
        checks.append({"check": f"composite {u+1}∘{u} is zero", "pass": zero})
    return {"pass": all(ch["pass"] for ch in checks), "dims": dims, "ranks": ranks, "checks": checks}


def kernel_preimage(c: int, k: int, u: int, ker_element, field):
    """Explicit preimage rule: given an element of ker([ζ_{u+1}^{k−u}]) in
    coordinates a_w^S (w a (k−u+1)-tuple, S a u-subset), build the element
    with coordinates b_{w'}^R := a_{w'_2…}^{(w'_1, R)} when w'_1 < min(R),
    else 0; then [ζ_u^{k−u+1}] maps it back to the input."""
    cols_in = homology_basis(c, k - u + 1, u)
    if len(ker_element) != len(cols_in):
        raise ValueError("coordinate length mismatch")
    kill = homology_zeta_matrix(c, k - u, u + 1)
    residual = [field.of(sum(a * x for a, x in zip(row, ker_element) if a)) for row in kill]
    if any(residual):
        raise ValueError(f"element not in kernel; residual {residual}")
    pos_in = {lab: i for i, lab in enumerate(cols_in)}
    cols_out = homology_basis(c, k - u + 2, u - 1)
    out = []
    for w, R in cols_out:
        w1 = w[0]
        if (not R or w1 < R[0]) and w1 not in R:
            key = (w[1:], tuple(sorted((w1,) + R)))
            out.append(ker_element[pos_in[key]])
        else:
            out.append(field.zero())
    return out
