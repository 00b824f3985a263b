"""The minimal free resolution of the residue field, assembled directly
from Koszul blocks and zeta maps.

F_i = ⊕_{j≥0} K_{i−2j}^{⊕C(j+c−1,c−1)}, its generators those of the
tuple sums (`koszul.tuple_sum_gens`) in order of j; the differential has
Koszul blocks on the diagonal and zeta blocks one level down
(`koszul.zeta_terms`).  This is an independent code path from the
mapping-cone tower, and `conetower.verify_cross_construction` compares
the two label for label.

Also here: minimality and exactness of F, its Betti numbers, and the
Leibniz rule of its DG product, which lives in `koszul` as it is K's
wedge on the empty tuple.  The product multiplies tuple parts with
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
from .polynomial import Polynomial, RingError
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


def _mod_variable(C: ChainComplex, max_d: int):
    """F̄ = C/x_v·C over R̄ = R/x_v·R for the last x_v at which no generator
    vanishes and dim R̄_e = dim R_e − dim R_{e−1} (x_v injective on R_{e−1})
    for 1 ≤ e ≤ max_d, else None: C's generators, each entry's x_v-free part
    over R̄, and ∂² = 0, which a ring map keeps once the caller has checked C."""
    R = C.ring
    for v in reversed(range(R.nvars)):
        def cut(p, v=v):
            return Polynomial(R.nvars - 1, R.field,
                              {m[:v] + m[v + 1:]: c for m, c in p.terms.items() if not m[v]})
        try:
            Rb = GradedQuotientRing(R.var_names[:v] + R.var_names[v + 1:],
                                    [cut(g) for g in R.generators], R.field)
        except RingError:
            continue
        if all(Rb.dim_quotient(e) == R.dim_quotient(e) - R.dim_quotient(e - 1)
               for e in range(1, max_d + 1)):
            bar = functools.cache(lambda p: Rb.normal_form(cut(p)))  # entries repeat
            mods = {i: FreeModule(Rb, m.gens) for i, m in C.modules.items()}
            diffs = {i: GradedMap(mods[i], mods[i - 1], {
                pos: q for pos, p in dmap.entries.items() if (q := bar(p)).terms})
                for i, dmap in C.differentials.items()}
            Fb = ChainComplex(Rb, mods, diffs, check=False)
            Fb._square_defect = C.square_defect()
            return Fb
    return None


def verify_minimal_and_exact(F: ChainComplex, max_d: int) -> dict:
    """Minimality, ∂² = 0 (as the constructor composed it), exactness at
    1 ≤ i < i_max = F.top and H_0 = k, in internal degrees ≤ max_d.  The homology
    expected to vanish is certified by ranks mod p over ℚ, falling back to
    exact ranks (`ChainComplex.vanishing_homology_dim`).  If R is not
    Artinian, exactness is read first off F̄ = F/x_v·F over R/x_v·R
    (`_mod_variable`), given three conditions: ∂² = 0, H_0(F)_d = [d = 0],
    and x_v injective on R, for d ≤ max_d.  Then 0 → F(−1) → F → F̄ → 0 is
    exact there, and its long exact sequence gives dim H_i(F̄)_d = dim
    coker(x_v on H_i(F))_d + dim ker(x_v on H_{i−1}(F))_{d−1}, the kernel
    term being [d = 1] at i = 1 as H_0(F) = k.  So dim H_i(F̄)_d = [(i, d) =
    (1, 1)] gives H_i(F)_d = x_v·H_i(F)_{d−1}, which is 0 by induction from
    d < 0.  Otherwise, or if F̄ has other homology, every strand of F is checked."""
    i_max = F.top
    minimal = all(F.differential(i).is_minimal() for i in range(1, i_max + 1))
    checks = [check("all differential entries in the maximal ideal", minimal),
              check("differential squares to zero", not F.square_defect())]
    h0 = [F.strand_homology_dim(0, 0)] + [
        F.vanishing_homology_dim(0, d) for d in range(1, max_d + 1)]
    h0_is_k = h0[0] == 1 and all(v == 0 for v in h0[1:])
    Fb = (_mod_variable(F, max_d) if F.ring.nvars > F.ring.codepth
          and not F.square_defect() and h0_is_k else None)
    certified = Fb is not None and all(
        Fb.vanishing_homology_dim(i, d) == ((i, d) == (1, 1))
        for i in range(1, i_max) for d in range(max_d + 1))
    bad = [] if certified else [
        (i, d)
        for i in range(1, i_max)
        for d in range(max_d + 1)
        if F.vanishing_homology_dim(i, d) != 0
    ]
    checks.append(check(f"exact in homological degrees 1..{i_max - 1}, "
                        f"internal degrees ≤ {max_d}", not bad, witnesses=bad))
    checks.append(check("H_0 is the residue field in internal degree 0", h0_is_k, actual=h0))
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
