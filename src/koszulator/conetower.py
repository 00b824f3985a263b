"""Iterated mapping-cone tower on the Koszul complex.

M^0 = K and M^j = Cone(ψ^j) where ψ^j : Σ^{2j−1}K^{⊕C(j+c−1,c−1)} → M^{j−1}
includes the (shifted) zeta map into the newest summand of the previous
level.  Each ψ is verified to be a chain map when built, and each cone is
assembled by the generic mapping-cone machinery, so this is an independent
code path from the direct block assembly of the resolution.  M^k sits in
M^{k+1} as a split subcomplex, its back generators, so the splitting is
read off the exact sequence 0 → M^k → M^{k+1} → Q → 0, Q = M^{k+1}/M^k.
"""

from __future__ import annotations

import math

from .complexes import ChainComplex, ChainMap, ComplexError, FreeModule, GradedMap, mapping_cone
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


def _quotient(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """Q = D/C: D's front generators with the front block of ∂ᴰ.  Raises
    ComplexError unless each C_i is the back of D_i and ∂ᴰ_i's entries in
    C's columns, re-indexed into C, are ∂ᶜ_i's (one in Q's rows re-indexes
    to a negative row): exactly when the split inclusion is a chain map."""
    degrees = sorted(set(C.modules) | set(D.modules))
    cut = {i: D.module(i).rank - C.module(i).rank for i in degrees}
    for i, n in cut.items():
        if C.module(i).gens != D.module(i).gens[n:]:
            raise ComplexError(f"inclusion misaligned at degree {i}")
    modules = {i: FreeModule(D.ring, D.module(i).gens[:n]) for i, n in cut.items()}
    empty = FreeModule(D.ring, [])
    diffs = {}
    for i in sorted(set(C.differentials) | set(D.differentials)):
        col, row = cut.get(i, 0), cut.get(i - 1, 0)
        entries = D.differential(i).entries.items()
        if {(r - row, c - col): p for (r, c), p in entries if c >= col} != C.differential(i).entries:
            raise ComplexError(f"inclusion is not a chain map at homological degree {i}")
        q = diffs[i] = GradedMap(modules.get(i, empty), modules.get(i - 1, empty))
        q.entries = {(r, c): p for (r, c), p in entries if r < row and c < col}
    return ChainComplex(D.ring, modules, diffs, check=False)


def verify_splitting(tower: ConeTower, k: int, max_i: int, max_d: int) -> dict:
    """H(f^k) = 0 on every strand with i ≥ 1 (and d ≥ 1 at i = 0), for the
    split inclusion f : C = M^k → D = M^{k+1}, read off the long exact
    sequence of 0 → C → D → Q = D/C → 0.  On each strand d,
    rank H_i(f) + rank H_{i−1}(f) = dim H_i(D) + dim H_{i−1}(C) − dim H_i(Q),
    so rank H_i(f) follows by working up from i = 0; only Q's strands are
    new.  The (0,0) strand is exceptional: H_0 of every level is the residue
    field in internal degree 0 and the inclusion induces the identity there,
    so we check it is an isomorphism instead."""
    C, D = tower.level(k), tower.level(k + 1)
    Q = _quotient(C, D)
    ranks = {}  # (i, d) -> rank H_i(f)_d, by i, then by d
    for i in range(max_i + 1):
        for d in range(max_d + 1):
            ranks[(i, d)] = (D.strand_homology_dim(i, d) + C.strand_homology_dim(i - 1, d)
                             - Q.strand_homology_dim(i, d) - ranks.get((i - 1, d), 0))
    failures = [s for s, r in ranks.items() if r and s != (0, 0)]
    corner_iso = (C.strand_homology_dim(0, 0) == D.strand_homology_dim(0, 0)
                  == ranks[(0, 0)] == 1)
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
