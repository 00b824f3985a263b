"""Chain maps and the zeta chain maps.

The zeta map for parameter k sends the shifted direct sum of Koszul
complexes indexed by (k+1)-tuples to the sum indexed by k-tuples: the
component landing in copy v collects z_j ∧ (copy sorted(v+j)) over
j = 1..c, by the column rule `koszul.zeta_terms`.  ζ and the cone tower's
ψ are `ChainMap`s, whose chain defect is composed once.  Homology-level
matrices are pure sign combinatorics and are built independently of any
ring; the splitting-and-spreading rule synthesizes ζ's matrices from their
k = 0 seed.
"""

from __future__ import annotations

import math

from .complexes import ChainComplex, ComplexError, GradedMap
from .koszul import (CycleBasis, KoszulComplex, check, compare, subsets, tuple_count,
                     tuple_sum_gens, tuples, verdict, zeta_terms)
from .linalg import rank


class ChainMap:
    """Degree-zero map of complexes f : C -> D given by components[i]."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components, check: bool = True):
        self.source = source
        self.target = target
        self.components = dict(components)
        self._chain_defect = None
        self._zero = {}  # the zero component at each degree past the stored ones
        if check:
            errs = self.chain_defect()
            if errs:
                i = errs[0]
                raise ComplexError(f"not a chain map at homological degree {i}")

    @classmethod
    def from_columns(cls, source, target, column, check: bool = True):
        """The chain map whose component in each degree of `source` is built
        by `GradedMap.from_columns` from one column rule."""
        return cls(source, target, {i: GradedMap.from_columns(m, target.module(i), column)
                                    for i, m in source.modules.items()}, check)

    def component(self, i) -> GradedMap:
        if i in self.components:
            return self.components[i]
        if i not in self._zero:
            self._zero[i] = GradedMap(self.source.module(i), self.target.module(i))
        return self._zero[i]

    def chain_defect(self):
        """Homological degrees where d_D f != f d_C, composed once: by the
        constructor when it checks, else on the first call.  A chain map is
        never changed once built, so the memo cannot go stale."""
        if self._chain_defect is None:
            bad = []
            degrees = set(self.source.differentials) | set(self.components)
            for i in sorted(degrees):
                lhs = self.target.differential(i).compose(self.component(i))
                rhs = self.component(i - 1).compose(self.source.differential(i))
                if lhs != rhs:
                    bad.append(i)
            self._chain_defect = bad
        return self._chain_defect



def koszul_tuple_sum(K: KoszulComplex, Z: CycleBasis, k: int) -> ChainComplex:
    """K^{⊕ tuples(c,k)} on the generators `tuple_sum_gens`, with K's ∂²
    defect, as each copy has K's column rule."""
    return ChainComplex.from_columns(
        K.ring, [tuple_sum_gens(Z, K.n, k, i) for i in range(K.n + 1)], K.column,
        defect=K.complex.square_defect())


def build_zeta(K: KoszulComplex, Z: CycleBasis, k: int) -> ChainMap:
    """ζ^k as a chain map ΣK^{⊕C(k+c,c−1)} → K^{⊕C(k+c−1,c−1)}."""
    return ChainMap.from_columns(koszul_tuple_sum(K, Z, k + 1).shift(1), koszul_tuple_sum(K, Z, k),
                                 lambda label: zeta_terms(Z, *label))


def verify_zeta_chain(zeta: ChainMap, k: int) -> dict:
    """∂^{⊕}∘ζ_u = −ζ_{u−1}∘∂^{⊕} for all u (the source carries −∂)."""
    witnesses = zeta.chain_defect()
    return check(f"zeta^{k} chain map", not witnesses, witnesses=witnesses)


def verify_zeta_square_zero(zeta_k: ChainMap, zeta_k1: ChainMap, k: int) -> dict:
    """ζ^k ∘ Σζ^{k+1} = 0; composing maps that are not consecutive raises
    ComplexError, as their modules differ."""
    witnesses = []
    for u in range(1, zeta_k.target.top + 1):
        inner = zeta_k1.component(u - 1)
        outer = zeta_k.component(u)
        if not outer.compose(inner).is_zero():
            witnesses.append(u)
    return check(f"zeta^{k} ∘ Σ zeta^{k + 1} = 0", not witnesses, witnesses=witnesses)


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
    checks = [compare("first map injective", dims[0], ranks[1])]
    for u in range(1, c):
        checks.append(compare(f"exactness at position {u}", dims[u], ranks[u] + ranks[u + 1]))
    checks.append(compare("last map surjective", dims[c], ranks[c]))
    # consecutive composites vanish: rows of mats[u+1] times columns of mats[u]
    for u in range(1, c):
        zero = all(sum(x * y for x, y in zip(row, col)) == 0
                   for row in mats[u + 1] for col in zip(*mats[u]))
        checks.append(check(f"composite {u+1}∘{u} is zero", zero))
    return verdict(checks, dims=dims, ranks=ranks)


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
            out.append(field.of(0))
    return out


# -- splitting and spreading ---------------------------------------------------


def spread_zeta(seed, c: int, k: int, zero=0):
    """Synthesize the zeta matrix for parameter k from its k = 0 seed by the
    recursive split-insert-stack rule.  The seed columns consist of c blocks
    of equal width (one per cycle); rows are a single block."""
    if not seed:
        return []
    ncols = len(seed[0])
    if ncols % c:
        raise ValueError(f"column count {ncols} not divisible by {c}")
    return _spread(seed, c, k, zero)


def _spread(M, c: int, k: int, zero):
    if k == 0 or c == 1:
        return [row[:] for row in M]
    s = len(M[0]) // c
    top = _spread(M, c, k - 1, zero)
    right = _spread([row[s:] for row in M], c - 1, k, zero)
    first = [row[:s] for row in M]
    n_right_cols = len(right[0]) if right else 0
    copies = math.comb(k + c - 2, c - 2)  # tuples of length k over c−1 letters
    pad_left = math.comb(k + c - 2, c - 1)  # tuples of length k−1 over c letters
    nrows_block = len(M)
    out = []
    for row in top:
        out.append(row + [zero] * n_right_cols)
    for copy in range(copies):
        for r in range(nrows_block):
            row = [zero] * (pad_left * s)
            for b in range(copies):
                row.extend(first[r] if b == copy else [zero] * s)
            row.extend(right[copy * nrows_block + r] if right else [])
            out.append(row)
    return out
