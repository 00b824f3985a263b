"""Iterated mapping-cone tower on the Koszul complex.

M^0 = K and M^j = Cone(ψ^j) where ψ^j : Σ^{2j−1}K^{⊕C(j+c−1,c−1)} → M^{j−1}
includes the (shifted) zeta map into the newest summand of the previous
level.  Each ψ is verified to be a chain map when built, and each cone is
assembled by the generic mapping-cone machinery, so this is an independent
code path from the direct block assembly of the resolution.
"""

from __future__ import annotations

import math

from .complexes import ChainComplex, ChainMap, ComplexError, GradedMap, mapping_cone
from .koszul import CycleBasis, KoszulComplex
from .zetamaps import homology_zeta_matrix, int_rank, koszul_tuple_sum, zeta_terms


class ConeTower:
    def __init__(self, K: KoszulComplex, Z: CycleBasis, levels):
        self.K = K
        self.Z = Z
        self.levels = levels  # M^0 .. M^J

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    def level(self, j: int) -> ChainComplex:
        return self.levels[j]

    def inclusion(self, j: int) -> ChainMap:
        """f^j : M^j → M^{j+1}, the cone's canonical split injection."""
        src = self.levels[j]
        tgt = self.levels[j + 1]
        comps = {}
        for i, m in src.modules.items():
            tm = tgt.module(i)
            offset = tm.rank - m.rank  # new summand sits in front
            if m.gens != tm.gens[offset:]:
                raise ComplexError(f"inclusion misaligned at degree {i}")
            one = src.ring.one()
            gmap = GradedMap(m, tm)
            gmap.entries = {(offset + r, r): one for r in range(m.rank)}
            comps[i] = gmap
        return ChainMap(src, tgt, comps)


def build_tower(K: KoszulComplex, Z: CycleBasis, J: int) -> ConeTower:
    levels = [K.complex]
    for j in range(1, J + 1):
        source = koszul_tuple_sum(K, Z, j).shift(2 * j - 1)
        prev = levels[j - 1]
        # ζ^{j−1} lands in the newest summand of prev, found there by label
        comps = {
            i: GradedMap.from_columns(
                m, prev.module(i), lambda label: zeta_terms(Z, *label)
            )
            for i, m in source.modules.items()
        }
        psi = ChainMap(source, prev, comps)  # chain identity verified here
        levels.append(mapping_cone(psi))
    return ConeTower(K, Z, levels)


def level_rank_prediction(n: int, c: int, J: int, i: int) -> int:
    """rank M^J_i = Σ_{j=0..J} C(n, i−2j)·C(j+c−1, c−1)."""
    total = 0
    for j in range(J + 1):
        if 0 <= i - 2 * j <= n:
            total += math.comb(n, i - 2 * j) * math.comb(j + c - 1, c - 1)
    return total


def verify_homology_theorem(tower: ConeTower, k: int, max_d: int) -> dict:
    """The three homology clauses for M^k: agreement with M^{k−1} outside
    the window, vanishing at 2k−1 and 2k, and dim H_{2k+u} = rank [ζ_u^k]."""
    K = tower.K
    ring = K.ring
    c = ring.codepth
    Mk = tower.level(k)
    Mk1 = tower.level(k - 1)
    i_top = 2 * k + c + 2
    cur = Mk.homology_table(i_top, max_d)
    prev = Mk1.homology_table(i_top, max_d)
    checks = []
    for i in [*range(2 * k - 1), i_top - 1, i_top]:
        same = all(cur[(i, d)] == prev[(i, d)] for d in range(max_d + 1))
        checks.append({"check": f"H_{i}(M^{k}) = H_{i}(M^{k-1})", "pass": same})
    for i in (2 * k - 1, 2 * k):
        vanish = all(cur[(i, d)] == 0 for d in range(max_d + 1))
        checks.append({"check": f"H_{i}(M^{k}) = 0", "pass": vanish})
    for u in range(1, c + 1):
        r = int_rank(homology_zeta_matrix(c, k, u), ring.field)
        total = sum(cur[(2 * k + u, d)] for d in range(max_d + 1))
        checks.append(
            {
                "check": f"dim H_{2*k+u}(M^{k}) = rank [zeta_{u}^{k}]",
                "expected": r,
                "actual": total,
                "pass": total == r,
            }
        )
    return {"pass": all(ch["pass"] for ch in checks), "checks": checks}


def verify_splitting(tower: ConeTower, k: int, max_i: int, max_d: int) -> dict:
    """H(f^k) = 0 on every strand with i ≥ 1 (and d ≥ 1 at i = 0), read off
    ranks of the cone of f = f^k : C → D.  Its differential
    ∂_{i+1} = [[−∂ᶜ_i, 0], [f_i, ∂ᴰ_{i+1}]] has rank
    rank ∂ᶜ_i + dim(im ∂ᴰ_{i+1} + f_i(ker ∂ᶜ_i)), so H_i(f)_d = 0 exactly
    when that rank is rank ∂ᶜ_i + rank ∂ᴰ_{i+1} on strand d.  The (0,0)
    strand is exceptional: H_0 of every level is the residue field in
    internal degree 0 and the inclusion induces the identity there, so we
    check it is an isomorphism instead."""
    f = tower.inclusion(k)
    C, D = f.source, f.target
    cone = mapping_cone(f)

    def vanishes(i, d):
        return (cone.differential(i + 1).strand_rank(d)
                == C.differential(i).strand_rank(d) + D.differential(i + 1).strand_rank(d))

    failures = [
        (i, d)
        for i in range(max_i + 1)
        for d in range(max_d + 1)
        if (i, d) != (0, 0) and not vanishes(i, d)
    ]
    corner_iso = (
        C.strand_homology_dim(0, 0) == 1
        and D.strand_homology_dim(0, 0) == 1
        and not vanishes(0, 0)
    )
    return {
        "check": f"H(f^{k}) = 0 on strands i ≤ {max_i}, d ≤ {max_d}",
        "pass": not failures and corner_iso,
        "witnesses": failures,
        "degree_zero_iso": corner_iso,
    }


def verify_stabilization(tower: ConeTower, j: int, max_d: int) -> dict:
    """H_i(M^j) → H_i(M^{j+1}) is an isomorphism for i ≤ j−1 at the level of
    graded dimensions (the tower stabilizes from below)."""
    cur = tower.level(j)
    nxt = tower.level(j + 1)
    bad = []
    for i in range(max(j, 0)):
        for d in range(max_d + 1):
            if cur.strand_homology_dim(i, d) != nxt.strand_homology_dim(i, d):
                bad.append((i, d))
    return {"check": f"stabilization below level {j}", "pass": not bad, "witnesses": bad}
