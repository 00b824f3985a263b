"""The minimal free resolution of the residue field, assembled directly
from Koszul blocks and zeta maps.

F_i = ⊕_{j≥0} K_{i−2j}^{⊕C(j+c−1,c−1)}, its generators those of the
tuple sums (`koszul.tuple_sum_gens`) in order of j; the differential has
Koszul blocks on the diagonal and zeta blocks one level down
(`koszul.zeta_terms`).  This is an independent code path from the
mapping-cone tower, and `conetower.verify_cross_construction` compares
the two label for label.

Also here: minimality of F and its exactness in every internal degree,
certified over an Artinian reduction R/(ℓ) by linear forms ℓ or, if no
ℓ is found, checked on F up to a derived window and called partial
(`verify_minimal_and_exact`); its Betti numbers; and the Leibniz rule of
its DG product, which lives in `koszul` as it is K's wedge on the empty
tuple.  The product multiplies tuple parts with
divided-power multiplicity coefficients (multinomials of the merged
multiplicities); plain concatenation with coefficient 1 would break the
Leibniz rule whenever the tuples share a value, since the differential
removes each distinct tuple value once.  Its commutativity and
associativity checks are in `dividedpowers`.
"""

from __future__ import annotations

import functools
import itertools
import math

from .complexes import ChainComplex, FreeModule, GradedMap
from .koszul import (CycleBasis, KoszulComplex, check, dg_product_basis, hom_degree,
                     tuple_sum_gens, verdict, zeta_terms)
from .polynomial import Polynomial
from .polyring import GradedQuotientRing


def assemble_f(K: KoszulComplex, Z: CycleBasis, i_max: int) -> ChainComplex:
    """Minimal free resolution F of k over R up to homological degree
    i_max = F.top."""
    return ChainComplex.from_columns(
        K.ring, [[g for j in range(i // 2 + 1) for g in tuple_sum_gens(Z, K.n, j, i - 2 * j)]
                 for i in range(i_max + 1)],
        lambda lab: itertools.chain(K.column(lab), zeta_terms(Z, *lab)))


def betti_numbers(F: ChainComplex):
    return [F.module(i).rank for i in range(F.top + 1)]


def poincare_coefficients(n: int, c: int, up_to: int):
    """Series coefficients of (1+t)^n / (1−t²)^c."""
    if c < 1:
        raise ValueError("codepth must be at least 1")
    num = [0] * (up_to + 1)
    for i in range(min(n, up_to) + 1):
        num[i] = math.comb(n, i)
    out = list(num)
    for _ in range(c):
        # divide by (1 - t^2): partial sums with stride 2
        for i in range(2, up_to + 1):
            out[i] += out[i - 2]
    return out


def _artinian_cut(R: GradedQuotientRing):
    """(R̄, names): R̄ = R/(ℓ_1..ℓ_m) Artinian, m = n − c, each ℓ_j named
    "x_v ↦ λ·x_w"; or None.  ℓ_j is the first of x_v (the last v first),
    then x_v − λ·x_w for λ = 1, −1, 2, −2 nonzero in the field, that leaves
    the CI Hilbert function Π(1 − t^{deg g})·(1 − t)^j/(1 − t)^n up to
    degree s + 1, s = Σ (deg g − 1), which R must have and a regular ℓ_j
    keeps.  At j = m it is 0 at s + 1: R̄ is Artinian, so (g, ℓ) is a system
    of parameters of k[x] and ℓ is regular on R.  The search is greedy, at
    most m·|candidates| rings, so None means that none was found."""
    n, f, s = R.nvars, R.field, sum(g.degree() - 1 for g in R.generators)
    unit = [tuple(int(i == v) for i in range(n)) for v in range(n)]
    lams = [lam for lam in dict.fromkeys(map(f.of, (1, -1, 2, -2))) if not f.is_zero(lam)]
    candidates = [(v, v, 0) for v in reversed(range(n))] + [
        (v, w, lam) for v in reversed(range(n)) for w in range(n) if w != v for lam in lams]

    def cut_by(cut):
        Rb = R
        if cut:  # linear relations, which no ring file holds, are read at d = 1
            Rb = GradedQuotientRing(R.var_names, R.generators, f)
            Rb.generators += [Polynomial(n, f, {unit[v]: 1} | ({unit[w]: -lam} if lam else {}))
                              for v, w, lam in cut]
        return Rb if Rb.hilbert_coefficients(s + 1) == Rb.ci_hilbert_coefficients(s + 1) else None

    Rb, cut = cut_by([]), []
    while Rb and len(cut) < n - R.codepth:
        Rb, step = next(((Rc, c) for c in candidates
                         if c not in cut and (Rc := cut_by(cut + [c]))), (None, None))
        cut.append(step)
    return Rb and (Rb, [f"{R.var_names[v]} ↦ "
                        f"{Polynomial(n, f, {unit[w]: lam}).to_string(R.var_names)}"
                        for v, w, lam in cut])


def _reduce(F: ChainComplex, Rb: GradedQuotientRing) -> ChainComplex:
    """F̄ = F ⊗ R̄: F's generators and each entry's normal form in R̄; ∂² = 0
    is kept by a ring map, so F̄ takes F's ∂² defect."""
    bar = functools.cache(Rb.normal_form)  # entries repeat
    mods = {i: FreeModule(Rb, m.gens) for i, m in F.modules.items()}
    diffs = {i: GradedMap(mods[i], mods[i - 1], {
        pos: q for pos, p in dmap.entries.items() if (q := bar(p)).terms})
        for i, dmap in F.differentials.items()}
    return ChainComplex(Rb, mods, diffs, defect=F.square_defect())


def verify_minimal_and_exact(F: ChainComplex) -> dict:
    """Minimality, ∂² = 0 (as the constructor composed it), H_0 = k and
    exactness at 1 ≤ i < i_max = F.top in every internal degree, each strand
    ranked by `ChainComplex.strand_homology_dim`: F and F̄ are known square
    zero, so over ℚ vanishing homology is certified mod p.
    With R̄ = R/(ℓ) Artinian (`_artinian_cut`), F̄ = F ⊗ R̄ (F if m = 0) and
    W = s + the largest twist of F_i, 1 ≤ i < i_max, past which F̄'s strands
    vanish, F is exact there if (a) H_0(F)_d = [d = 0] for d ≤ 1; (b)
    H_i(F)_{i+1} = 0 for 1 ≤ i < min(m, i_max); (c) dim H_i(F̄)_d = C(m, i)·
    [d = i] for d ≤ W, Tor^R(k, R̄) = Λ(k^m).  In the double complex K(ℓ) ⊗ F
    the rows give H(F̄), ℓ being regular, and the columns E¹_{p,q} =
    H_q(F)^{C(m,p)}(−p) (Weibel §5.6).  A lowest H_q(F)_{d0} ≠ 0 (least d0,
    then q) can be hit only from E_{q+1,0} = k^{C(m,q+1)} when d0 = q + 1,
    which (b) rules out, so it survives into H_q(F̄)_{d0}, against (c).  With
    no cut the loop runs on F, as for m = 0, and says `partial`: degrees
    ≤ W only.  Witnesses are the (i, d) where (b) or (c) fails."""
    i_max, R = F.top, F.ring
    minimal = all(F.differential(i).is_minimal() for i in range(1, i_max + 1))
    checks = [check("all differential entries in the maximal ideal", minimal),
              check("differential squares to zero", not F.square_defect())]
    h0 = [F.strand_homology_dim(0, 0), F.strand_homology_dim(0, 1)]
    window = max((t for i in range(1, i_max) for _, t in F.module(i).gens), default=0) + sum(
        g.degree() - 1 for g in R.generators)
    Rb, cut = _artinian_cut(R) or (R, None)
    m = len(cut or ())
    Fb = _reduce(F, Rb) if m else F
    bad = {(i, i + 1) for i in range(1, min(m, i_max)) if F.strand_homology_dim(i, i + 1)}
    bad.update((i, d) for i in range(1, i_max) for d in range(window + 1)
               if Fb.strand_homology_dim(i, d) != math.comb(m, i) * (d == i))
    covered = "every internal degree" if cut is not None else f"internal degrees ≤ {window}"
    checks.append(check(f"exact in homological degrees 1..{i_max - 1}, {covered}", not bad,
                        witnesses=sorted(bad), cut=cut, window=window, partial=cut is None))
    checks.append(check("H_0 is the residue field in internal degree 0", h0 == [1, 0], actual=h0))
    return verdict(checks)


# -- DG product ------------------------------------------------------------


def verify_leibniz(F: ChainComplex, pairs) -> dict:
    """∂(ab) = ∂(a)b + (−1)^{|a|} a ∂(b) on the given basis-label pairs.  ∂
    of each basis label is applied once per call.  A product of two basis
    labels is an integer times a basis label (`dg_product_basis`), so the
    difference of the two sides is a sum of integer multiples of ∂'s
    entries, normal forms, by label: no ring product is taken."""
    ring = F.ring
    bd = functools.cache(lambda lab: F.differential(hom_degree(lab)).apply({lab: ring.one()}))
    failures = []
    for a, b in pairs:
        i, i2 = hom_degree(a), hom_degree(b)
        if i + i2 > F.top:
            raise ValueError("pair beyond resolution range")
        c, ab = dg_product_basis(a, b)
        sign = (-1) ** i
        terms = itertools.chain(
            ((c, lab, p) for lab, p in (bd(ab) if c else {}).items()),
            ((-k, lab, p) for la, p in bd(a).items() for k, lab in (dg_product_basis(la, b),)),
            ((-sign * k, lab, p) for lb, p in bd(b).items()
             for k, lab in (dg_product_basis(a, lb),)))
        defect = {}
        for k, lab, p in terms:
            acc = defect.setdefault(lab, {})
            for m, x in p.terms.items():
                acc[m] = acc.get(m, 0) + k * x
        if any(Polynomial(ring.nvars, ring.field, acc).terms for acc in defect.values()):
            failures.append((a, b))
    return check("graded Leibniz rule", not failures, witnesses=failures)


def basis_labels(F: ChainComplex, i: int):
    return [lab for lab, _ in F.module(i).gens]
