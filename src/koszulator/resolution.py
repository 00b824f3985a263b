"""The minimal free resolution of the residue field, assembled directly
from Koszul blocks and zeta maps.

F_i = ⊕_{j≥0} K_{i−2j}^{⊕C(j+c−1,c−1)}, its generators those of the
tuple sums (`zetamaps.tuple_sum_gens`) in order of j; the differential has
Koszul blocks on the diagonal and zeta blocks one level down.  This is an
independent code path from the mapping-cone tower and the two are
cross-checked label-for-label.

Also here: the splitting-and-spreading synthesis of zeta matrices from
their k = 0 seed, and the DG product with a Leibniz verifier.  The product
multiplies tuple parts with divided-power multiplicity coefficients
(multinomials of the merged multiplicities); plain concatenation with
coefficient 1 would break the Leibniz rule whenever the tuples share a
value, since the differential removes each distinct tuple value once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

from .complexes import ChainComplex, FreeModule, GradedMap, collect
from .koszul import CycleBasis, KoszulComplex, merge_wedge
from .polyring import GradedQuotientRing, Polynomial, RingError
from .zetamaps import tuple_sum_gens, zeta_terms


class ResolutionF:
    """Minimal free resolution of k over R up to homological degree i_max."""

    def __init__(self, K: KoszulComplex, Z: CycleBasis, i_max: int):
        self.K = K
        self.Z = Z
        self.i_max = i_max
        ring = K.ring
        modules = {
            i: FreeModule(ring, [g for j in range(i // 2 + 1)
                                 for g in tuple_sum_gens(Z, K.n, j, i - 2 * j)])
            for i in range(i_max + 1)
        }

        def column(label):
            yield from K.column(label)
            yield from zeta_terms(Z, *label)

        diffs = {
            i: GradedMap.from_columns(modules[i], modules[i - 1], column)
            for i in range(1, i_max + 1)
        }
        self.complex = ChainComplex(ring, modules, diffs)


def assemble_f(K: KoszulComplex, Z: CycleBasis, i_max: int) -> ResolutionF:
    return ResolutionF(K, Z, i_max)


def betti_numbers(F: ResolutionF):
    return [F.complex.module(i).rank for i in range(F.i_max + 1)]


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
            diffs = {i: GradedMap(mods[i], mods[i - 1]) for i in C.differentials}
            for i, dmap in diffs.items():
                dmap.entries = {pos: q for pos, p in C.differentials[i].entries.items()
                                if (q := bar(p)).terms}
            Fb = ChainComplex(Rb, mods, diffs, check=False)
            Fb._square_defect = C.square_defect()
            return Fb
    return None


def verify_minimal_and_exact(F: ResolutionF, max_d: int) -> dict:
    """Minimality, ∂² = 0 (as the constructor composed it), exactness at
    1 ≤ i < i_max and H_0 = k, in internal degrees ≤ max_d.  The homology
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
    C = F.complex
    checks = []
    minimal = all(C.differential(i).is_minimal() for i in range(1, F.i_max + 1))
    checks.append({"check": "all differential entries in the maximal ideal", "pass": minimal})
    checks.append({"check": "differential squares to zero", "pass": not C.square_defect()})
    h0 = [C.strand_homology_dim(0, 0)] + [
        C.vanishing_homology_dim(0, d) for d in range(1, max_d + 1)]
    h0_is_k = h0[0] == 1 and all(v == 0 for v in h0[1:])
    Fb = (_mod_variable(C, max_d) if C.ring.nvars > C.ring.codepth
          and not C.square_defect() and h0_is_k else None)
    certified = Fb is not None and all(
        Fb.vanishing_homology_dim(i, d) == ((i, d) == (1, 1))
        for i in range(1, F.i_max) for d in range(max_d + 1))
    bad = [] if certified else [
        (i, d)
        for i in range(1, F.i_max)
        for d in range(max_d + 1)
        if C.vanishing_homology_dim(i, d) != 0
    ]
    checks.append(
        {
            "check": f"exact in homological degrees 1..{F.i_max - 1}, internal degrees ≤ {max_d}",
            "pass": not bad,
            "witnesses": bad,
        }
    )
    checks.append(
        {
            "check": "H_0 is the residue field in internal degree 0",
            "pass": h0_is_k,
            "actual": h0,
        }
    )
    return {"pass": all(ch["pass"] for ch in checks), "checks": checks}


def verify_cross_construction(F: ResolutionF, tower, i_top: int) -> dict:
    """F and the cone tower level agree label-for-label for i ≤ i_top."""
    level = tower.level(tower.height)
    mismatches = []
    for i in range(i_top + 1):
        fm = F.complex.module(i)
        tm = level.module(i)
        if sorted(fm.gens) != sorted(tm.gens):
            mismatches.append(("generators", i))
            continue
        fd = F.complex.differential(i)
        td = level.differential(i)
        f_by_label = {
            (fd.target.gens[r][0], fd.source.gens[c][0]): p
            for (r, c), p in fd.entries.items()
        }
        t_by_label = {
            (td.target.gens[r][0], td.source.gens[c][0]): p
            for (r, c), p in td.entries.items()
        }
        if f_by_label != t_by_label:
            mismatches.append(("differential", i))
    return {
        "check": f"resolution equals stabilized tower level for i ≤ {i_top}",
        "pass": not mismatches,
        "witnesses": mismatches,
    }


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


# -- DG product ------------------------------------------------------------


def dg_product_basis(a, b):
    """Product of basis labels (tuple, wedge); returns (coefficient, label)
    with coefficient an integer carrying both the wedge sign and the
    divided-power multiplicity, or (0, None)."""
    (wa, Sa), (wb, Sb) = a, b
    sign, S = merge_wedge(Sa, Sb)
    if sign == 0:
        return 0, None
    w = tuple(sorted(wa + wb))
    mult = 1
    ca = Counter(wa)
    cb = Counter(wb)
    for val in set(ca) & set(cb):
        mult *= math.comb(ca[val] + cb[val], ca[val])
    return sign * mult, (w, S)


def dg_product_elements(F: ResolutionF, x: dict, y: dict) -> dict:
    """Bilinear extension of the basis product to {label: Polynomial}."""
    return collect(((lab, p, q, coeff) for la, p in x.items() for lb, q in y.items()
                    for coeff, lab in (dg_product_basis(la, lb),) if coeff), F.K.ring)


def hom_degree(label) -> int:
    w, S = label
    return len(S) + 2 * len(w)


def verify_leibniz(F: ResolutionF, pairs) -> dict:
    """∂(ab) = ∂(a)b + (−1)^{|a|} a ∂(b) on the given basis-label pairs."""
    ring = F.K.ring
    one = ring.one()
    d = F.complex.differential
    failures = []
    for a, b in pairs:
        i, i2 = hom_degree(a), hom_degree(b)
        if i + i2 > F.i_max:
            raise ValueError("pair beyond resolution range")
        lhs = d(i + i2).apply(dg_product_elements(F, {a: one}, {b: one}))
        da = d(i).apply({a: one})
        db = d(i2).apply({b: one})
        adb = dg_product_elements(F, {a: one}, db)
        rhs = collect(
            itertools.chain(
                ((lab, one, p) for lab, p in dg_product_elements(F, da, {b: one}).items()),
                ((lab, one, p, (-1) ** i) for lab, p in adb.items()),
            ),
            ring,
        )
        if lhs != rhs:
            failures.append((a, b))
    return {"check": "graded Leibniz rule", "pass": not failures, "witnesses": failures}


def basis_labels(F: ResolutionF, i: int):
    return [lab for lab, _ in F.complex.module(i).gens]


def verify_graded_commutativity(F: ResolutionF, pairs) -> dict:
    failures = []
    for a, b in pairs:
        i, i2 = hom_degree(a), hom_degree(b)
        ca, la = dg_product_basis(a, b)
        cb, lb = dg_product_basis(b, a)
        expected = ca if (i * i2) % 2 == 0 else -ca
        if (cb, lb if cb else None) != (expected, la if expected else None):
            failures.append((a, b))
    return {"check": "graded commutativity", "pass": not failures, "witnesses": failures}


def verify_associativity(F: ResolutionF, triples) -> dict:
    ring = F.K.ring
    one = ring.one()
    failures = []
    for a, b, cc in triples:
        ab = dg_product_elements(F, {a: one}, {b: one})
        bc = dg_product_elements(F, {b: one}, {cc: one})
        left = dg_product_elements(F, ab, {cc: one})
        right = dg_product_elements(F, {a: one}, bc)
        if left != right:
            failures.append((a, b, cc))
    return {"check": "associativity", "pass": not failures, "witnesses": failures}
