"""Iterated mapping-cone tower on the Koszul complex.

M^0 = K and M^j = Cone(ψ^j) where ψ^j : Σ^{2j−1}K^{⊕C(j+c−1,c−1)} → M^{j−1}
includes the (shifted) zeta map into the newest summand of the previous
level.  Each ψ is verified to be a chain map when built, and each cone is
assembled by the generic mapping cone (`mapping_cone`), so this is an
independent code path from the direct block assembly of the resolution;
`verify_cross_construction` compares the two label for label.  M^k sits
in M^{k+1} as a split subcomplex, its back generators, and the quotient
Q = M^{k+1}/M^k is a sum of shifted, twisted copies of K, so the splitting
is read off the exact sequence 0 → M^k → M^{k+1} → Q → 0 and K's homology.
"""

from __future__ import annotations

import math

from .complexes import ChainComplex, ComplexError, FreeModule, GradedMap
from .koszul import CycleBasis, KoszulComplex, check, compare, degree_window, verdict, zeta_terms
from .zetamaps import ChainMap, homology_zeta_matrix, int_rank, koszul_tuple_sum


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f : C -> D, cone_i = C_{i-1} ⊕ D_i with
    ∂(c, d) = (-∂_C c, f(c) + ∂_D d).  f's chain defect, composed once
    per chain map, must be empty.  The −∂_C, f and ∂_D blocks fill disjoint
    (row, column) ranges, so each entry is kept as it is."""
    if f.chain_defect():
        raise ComplexError("mapping cone of a non-chain map")
    C, D = f.source, f.target
    ring = C.ring
    top = max(C.top + 1, D.top)
    modules = {}
    for i in range(top + 1):
        m = FreeModule(ring, C.module(i - 1).gens + D.module(i).gens)
        if m.rank:
            modules[i] = m
    diffs = {}
    for i in range(1, top + 1):
        src = modules.get(i)
        if src is None:
            continue
        cs, ct = C.module(i - 1).rank, C.module(i - 2).rank
        entries = {(r, c): -p for (r, c), p in C.differential(i - 1).entries.items()}
        entries.update(((ct + r, c), p) for (r, c), p in f.component(i - 1).entries.items())
        entries.update(((ct + r, cs + c), p) for (r, c), p in D.differential(i).entries.items())
        diffs[i] = GradedMap(src, modules.get(i - 1) or FreeModule(ring, []), entries)
    return ChainComplex(ring, modules, diffs, check=False)


def build_tower(K: KoszulComplex, Z: CycleBasis, J: int) -> list:
    """The levels M^0 .. M^J."""
    levels = [K.complex]
    for j in range(1, J + 1):
        source = koszul_tuple_sum(K, Z, j).shift(2 * j - 1)
        # ζ^{j−1} lands in the newest summand of M^{j−1}, found there by
        # label; the chain identity is verified here
        psi = ChainMap.from_columns(source, levels[j - 1], lambda label: zeta_terms(Z, *label))
        levels.append(mapping_cone(psi))
    return levels


def level_rank_prediction(n: int, c: int, J: int, i: int) -> int:
    """rank M^J_i = Σ_{j=0..J} C(n, i−2j)·C(j+c−1, c−1)."""
    total = 0
    for j in range(J + 1):
        if 0 <= i - 2 * j <= n:
            total += math.comb(n, i - 2 * j) * math.comb(j + c - 1, c - 1)
    return total


def verify_homology_theorem(tower, k: int) -> dict:
    """The homology clauses for M^k = tower[k] on d ≤ `degree_window(ring, k)`,
    where H(M^k) and H(M^{k−1}) lie: agreement with M^{k−1} outside the
    window, vanishing at 2k−1 and 2k, and dim H_{2k+u} = rank [ζ_u^k]."""
    Mk, Mk1 = tower[k], tower[k - 1]
    ring = Mk.ring
    c = ring.codepth
    i_top = 2 * k + c + 2
    max_d = degree_window(ring, k)
    cur = Mk.homology_table(i_top, max_d)
    prev = Mk1.homology_table(i_top, max_d)
    checks = []
    for i in [*range(2 * k - 1), i_top - 1, i_top]:
        same = all(cur[(i, d)] == prev[(i, d)] for d in range(max_d + 1))
        checks.append(check(f"H_{i}(M^{k}) = H_{i}(M^{k-1})", same))
    for i in (2 * k - 1, 2 * k):
        vanish = all(cur[(i, d)] == 0 for d in range(max_d + 1))
        checks.append(check(f"H_{i}(M^{k}) = 0", vanish))
    for u in range(1, c + 1):
        r = int_rank(homology_zeta_matrix(c, k, u), ring.field)
        total = sum(cur[(2 * k + u, d)] for d in range(max_d + 1))
        checks.append(compare(f"dim H_{2*k+u}(M^{k}) = rank [zeta_{u}^{k}]", r, total))
    return verdict(checks)


def _labelled(gmap: GradedMap, rows: int = None, cols: int = None) -> dict:
    """gmap's entries in its first `rows` rows and `cols` columns (all of
    them by default), keyed by (target label, source label)."""
    tgt, src = gmap.target.gens[:rows], gmap.source.gens[:cols]
    return {(tgt[r][0], src[c][0]): p for (r, c), p in gmap.entries.items()
            if r < len(tgt) and c < len(src)}


def _copies_of_k(C: ChainComplex, D: ChainComplex, K: ChainComplex):
    """(s, {w: t_w}) with Q = D/C = ⊕_w Σ^s K(−t_w), read off Q's lowest
    generators, the copies of K_0.  Raises ComplexError naming the degree
    unless C_i is the back of D_i and the split inclusion is a chain map
    (∂ᴰ_i's entries in C's columns, re-indexed into C, are ∂ᶜ_i's), and
    unless, label for label, Q_i is K_{i−s} twisted by t_w on each copy w
    and Q's block of ∂ᴰ_i is ∂ᴷ_{i−s} on each copy, with no other entry."""
    top = max(C.top, D.top) + K.top
    cut = {i: D.module(i).rank - C.module(i).rank for i in range(-1, top + 1)}
    s = min((i for i, n in cut.items() if n), default=0)
    twists = {w: t for (w, _), t in D.module(s).gens[:cut[s]]}
    for i in range(top + 1):
        gens, dmap, n = D.module(i).gens, D.differential(i), cut[i]
        if C.module(i).gens != gens[n:]:
            raise ComplexError(f"inclusion misaligned at degree {i}")
        if {(r - cut[i - 1], c - n): p for (r, c), p in dmap.entries.items()
                if c >= n} != C.differential(i).entries:
            raise ComplexError(f"inclusion is not a chain map at homological degree {i}")
        copies = [((w, S), t + tw) for w, tw in twists.items()
                  for (_, S), t in K.module(i - s).gens]
        if sorted(gens[:n]) != sorted(copies) or _labelled(dmap, cut[i - 1], n) != {
                ((w, T), (w, S)): p for w in twists
                for ((_, T), (_, S)), p in _labelled(K.differential(i - s)).items()}:
            raise ComplexError(f"quotient is not a sum of copies of K at homological degree {i}")
    return s, twists


def verify_splitting(tower, k: int) -> dict:
    """H(f^k) = 0 on the strands i ≥ 1 (and d ≥ 1 at i = 0), i ≤ C.top and
    d ≤ `degree_window(ring, k + 1)`, where H(C) and H(D) lie, for the split
    inclusion f : C = M^k → D = M^{k+1}.  On each strand of 0 → C → D → Q → 0,
    rank H_i(f) + rank H_{i−1}(f) = dim H_i(D) + dim H_{i−1}(C) − dim H_i(Q),
    worked up from i = 0, with dim H_i(Q)_d = Σ_w dim H_{i−s}(K)_{d−t_w}
    (`_copies_of_k`): no strand of Q is laid out.  At (0,0), where f induces
    the identity of the residue field, it checks an isomorphism."""
    C, D, K = tower[k], tower[k + 1], tower[0]
    s, twists = _copies_of_k(C, D, K)
    max_i, max_d = C.top, degree_window(C.ring, k + 1)
    ranks = {}  # (i, d) -> rank H_i(f)_d, by i, then by d
    for i in range(max_i + 1):
        for d in range(max_d + 1):
            q = sum(K.strand_homology_dim(i - s, d - t) for t in twists.values())
            ranks[(i, d)] = (D.strand_homology_dim(i, d) + C.strand_homology_dim(i - 1, d)
                             - q - ranks.get((i - 1, d), 0))
    failures = [key for key, r in ranks.items() if r and key != (0, 0)]
    corner_iso = C.strand_homology_dim(0, 0) == D.strand_homology_dim(0, 0) == ranks[(0, 0)] == 1
    return check(f"H(f^{k}) = 0 on strands i ≤ {max_i}, d ≤ {max_d}",
                 not failures and corner_iso, witnesses=failures, degree_zero_iso=corner_iso)


def verify_cross_construction(F, tower, i_top: int) -> dict:
    """The resolution F (`resolution.assemble_f`) and the top tower level
    agree label-for-label for i ≤ i_top."""
    level, mismatches = tower[-1], []
    for i in range(i_top + 1):
        if sorted(F.module(i).gens) != sorted(level.module(i).gens):
            mismatches.append(("generators", i))
        elif _labelled(F.differential(i)) != _labelled(level.differential(i)):
            mismatches.append(("differential", i))
    return check(f"resolution equals stabilized tower level for i ≤ {i_top}", not mismatches,
                 witnesses=mismatches)
