"""Koszul complex on the variables over R = Q/I, its homology algebra,
and cycle representatives generating degree-one homology.

Generators of K_i are e_S for strictly increasing subsets S of {1..n},
labelled ((), S) so that downstream constructions can replace the empty
tuple with a multi-index.  Elements of K are dicts {label: Polynomial} on
those labels, as F's are, so ∂ on elements is `GradedMap.apply` and their
product is `dg_product_elements`, F's product on the empty tuple.

A multi-index is a non-decreasing tuple with entries in 1..c, ordered
lexicographically.  The sums of copies of K indexed by k-tuples
(`tuple_sum_gens`) and the ζ block between them (`zeta_terms`) are written
here once, beside K's column rule and the wedge sign: the ζ maps, the cone
tower, F and the divided-power layout all build on them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

from .complexes import ChainComplex, FreeModule, GradedMap, collect
from .polynomial import Polynomial
from .polyring import GradedQuotientRing


class CycleError(ValueError):
    pass


def subsets(n: int, i: int):
    """Strictly increasing i-subsets of {1..n} in lex order."""
    return [tuple(s) for s in itertools.combinations(range(1, n + 1), i)]


def tuple_count(c: int, k: int) -> int:
    return math.comb(k + c - 1, c - 1) if k >= 0 else 0


def tuples(c: int, k: int):
    """All non-decreasing k-tuples over 1..c in lex order; empty for k < 0."""
    if k < 0:
        return []
    return list(itertools.combinations_with_replacement(range(1, c + 1), k))


def hom_degree(label) -> int:
    """Homological degree |S| + 2·|w| of the generator labelled (w, S)."""
    w, S = label
    return len(S) + 2 * len(w)


def wedge_sign(i: int, S):
    """Sign of e_i ∧ e_S -> e_{sorted({i}∪S)}, or (0, None) when i ∈ S."""
    if i in S:
        return 0, None
    below = sum(1 for s in S if s < i)
    merged = tuple(sorted(S + (i,)))
    return (-1) ** below, merged


def wedge_cycle(z, S):
    """Terms (T, ±z_i) of z ∧ e_S for a 1-cycle z given by its n coordinates."""
    for i, p in enumerate(z, 1):
        if p.is_zero():
            continue
        sign, T = wedge_sign(i, S)
        if sign:
            yield T, p if sign == 1 else -p


def merge_wedge(S, T):
    """Sign and result of e_S ∧ e_T; (0, None) on a repeated index.  Each
    e_t is appended on the right, as e_out ∧ e_t = (−1)^{|out|} e_t ∧ e_out."""
    sign, out = 1, S
    for t in T:
        s, out_t = wedge_sign(t, out)
        if not s:
            return 0, None
        sign *= -s if len(out) % 2 else s
        out = out_t
    return sign, out


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


def dg_product_elements(ring, x: dict, y: dict) -> dict:
    """Bilinear extension of the basis product to {label: Polynomial}."""
    return collect(((lab, p, q, coeff) for la, p in x.items() for lb, q in y.items()
                    for coeff, lab in (dg_product_basis(la, lb),) if coeff), ring)


class KoszulComplex:
    """K on x_1..x_n over R, with ∂(e_S) = Σ_t (−1)^{t+1} x_{s_t} e_{S∖s_t}."""

    def __init__(self, ring: GradedQuotientRing):
        self.ring = ring
        self.n = ring.nvars
        self._boundary = {}  # S -> the terms of ∂e_S, made once
        self.complex = ChainComplex.from_columns(
            ring, [[(((), S), i) for S in subsets(self.n, i)] for i in range(self.n + 1)],
            self.column)

    def column(self, label):
        """Terms ((w, S∖s_t), (−1)^t x_{s_t}) of ∂ on the generator labelled
        (w, S) of any sum of copies of K indexed by w, t counted from 0; the
        terms of ∂e_S are made once per S."""
        w, S = label
        if S not in self._boundary:
            xs = map(self.ring.variable, (s - 1 for s in S))
            self._boundary[S] = [(S[:t] + S[t + 1:], -x if t % 2 else x) for t, x in enumerate(xs)]
        return (((w, rest), x) for rest, x in self._boundary[S])


class CycleBasis:
    """Homogeneous 1-cycles z_1..z_c whose classes form a basis of H_1(K)."""

    def __init__(self, K: KoszulComplex, cycles, degrees):
        self.K = K
        self.cycles = list(cycles)  # each a list of n Polynomials
        self.degrees = list(degrees)

    def element(self, j: int) -> dict:
        """z_j as a Koszul element {((), (i,)): Polynomial}."""
        return {
            ((), (i + 1,)): p
            for i, p in enumerate(self.cycles[j])
            if not p.is_zero()
        }


def tuple_sum_gens(Z: CycleBasis, n: int, k: int, i: int):
    """Generators ((w, S), i + Σ deg z_{w_t}) of K_i^{⊕ tuples(c,k)} over n
    variables, tuple-major: the copy w of e_S is twisted by the degrees of
    the cycles that w names.  This is the one place the twist rule lives."""
    return [
        ((w, S), i + sum(Z.degrees[t - 1] for t in w))
        for w in tuples(Z.K.ring.codepth, k)
        for S in subsets(n, i)
    ]


def zeta_terms(Z: CycleBasis, w, S):
    """Terms ((v, T), p) of ζ on the generator (w, S): for each distinct value
    j of w, drop one j from w and wedge z_j into e_S."""
    for pos, j in enumerate(w):
        if j not in w[:pos]:
            v = w[:pos] + w[pos + 1:]
            for T, p in wedge_cycle(Z.cycles[j - 1], S):
                yield (v, T), p


def cycles_from_generators(K: KoszulComplex) -> CycleBasis:
    """Cycle z_t for each ideal generator g_t, writing each monomial of g_t
    through its last dividing variable: m = (m / x_i)·x_i with i maximal."""
    ring = K.ring
    n = K.n
    cycles = []
    degrees = []
    for g in ring.generators:
        z = [[] for _ in range(n)]
        for m, c in g.terms.items():
            i = max(idx for idx, e in enumerate(m) if e > 0)
            reduced = list(m)
            reduced[i] -= 1
            z[i].append(Polynomial(n, ring.field, {tuple(reduced): c}))
        cycles.append([ring.normal_form(*ps) for ps in z])
        degrees.append(g.degree())
    basis = CycleBasis(K, cycles, degrees)
    validate_cycles(basis)
    return basis


def validate_cycles(Z: CycleBasis):
    """Check ∂₁z_j = 0 in R, entries in m, and independence of the classes."""
    K = Z.K
    ring = K.ring
    if len(Z.cycles) != ring.codepth:
        raise CycleError(f"expected {ring.codepth} cycles, got {len(Z.cycles)}")
    for j, (z, d) in enumerate(zip(Z.cycles, Z.degrees), 1):
        if len(z) != ring.nvars:
            raise CycleError(f"z_{j} has {len(z)} coordinates, expected {ring.nvars}")
        for p in z:
            if p.is_zero():
                continue
            if not p.is_homogeneous(d - 1):
                raise CycleError(f"z_{j} is not homogeneous of degree {d - 1}")
            if p.degree() == 0:
                raise CycleError(f"z_{j} has a unit entry")
        bdry = K.complex.differential(1).apply(Z.element(j - 1))
        if bdry:
            raise CycleError(f"z_{j} is not a cycle: "
                             f"∂₁z_{j} = {bdry[((), ())].to_string(ring.var_names)}")
    for d in dict.fromkeys(Z.degrees):
        elems = [Z.element(j) for j, e in enumerate(Z.degrees) if e == d]
        if not _independent_mod_boundaries(K, elems, 1, d):
            raise CycleError(f"cycle classes of degree {d} are dependent modulo boundaries")
    return True


def _independent_mod_boundaries(K: KoszulComplex, elems, u: int, d: int) -> bool:
    """Do the degree-d elements of K_u have independent classes modulo the
    boundaries ∂K_{u+1}?  They do exactly when the map into K_u whose
    columns are ∂_{u+1}'s and then the elements, each twisted d, has rank
    rank ∂_{u+1} + len(elems) at degree d.  No column stack has more, so
    its elimination stops there.  The elements are checked cycles or their
    products, nonzero normal forms of degree d."""
    boundary = K.complex.differential(u + 1)
    target = K.complex.module(u)
    row = {lab: r for r, (lab, _) in enumerate(target.gens)}
    nb = boundary.source.rank
    source = FreeModule(K.ring, boundary.source.gens + [(None, d)] * len(elems))
    stacked = GradedMap(source, target, {**boundary.entries, **{
        (row[lab], nb + j): p for j, elem in enumerate(elems) for lab, p in elem.items()}})
    full = boundary.strand_rank(d) + len(elems)
    return stacked.strand_rank(d, ceiling=full) == full


def cycles_from_user(K: KoszulComplex, coefficient_lists) -> CycleBasis:
    """User-supplied cycles (lists of n polynomials), each of the degree its
    nonzero coordinates share plus one; validated before use."""
    ring = K.ring
    cycles = [[ring.normal_form(p) for p in z] for z in coefficient_lists]
    degrees = []
    for j, z in enumerate(cycles, 1):
        degs = {p.degree() + 1 for p in z if not p.is_zero()}
        if len(degs) != 1:
            raise CycleError(f"cannot infer a degree for cycle {j}")
        degrees.append(degs.pop())
    basis = CycleBasis(K, cycles, degrees)
    validate_cycles(basis)
    return basis


def degree_window(ring: GradedQuotientRing, k: int) -> int:
    """Σ deg g_t + max(1, k)·max deg g_t: the internal-degree window of the
    level-k checks; k = 1 is the certificate's, as H_c(K) lies in degree Σ deg."""
    degs = [g.degree() for g in ring.generators]
    return sum(degs) + max(1, k) * max(degs)


def check(name: str, passed: bool, **facts) -> dict:
    """One check record of a report: its name, its verdict and the facts
    it rests on.  Every verifier builds its records here and groups them
    with `verdict`."""
    return {"check": name, "pass": passed, **facts}


def compare(name: str, expected, actual) -> dict:
    """The check that `actual` equals `expected`, recording both."""
    return check(name, actual == expected, expected=expected, actual=actual)


def verdict(checks, **facts) -> dict:
    """A group of checks, passing when each of them does."""
    return {"pass": all(ch["pass"] for ch in checks), "checks": checks, **facts}


def certify_complete_intersection(K: KoszulComplex, Z: CycleBasis = None) -> dict:
    """Check that H(K) is the exterior algebra on c degree-one classes."""
    ring = K.ring
    c = ring.codepth
    checks = []
    bound = degree_window(ring, 1)  # reaches H_c(K), which lies in degree Σ deg
    table = K.complex.homology_table(K.n, bound)
    for i in range(K.n + 1):
        checks.append(compare(f"dim H_{i}(K) == C({c},{i})", math.comb(c, i),
                              sum(table[(i, d)] for d in range(bound + 1))))
    checks.append(compare("Hilbert series matches complete intersection prediction",
                          ring.ci_hilbert_coefficients(bound), ring.hilbert_coefficients(bound)))
    if Z is not None:
        checks.append(compare("wedge products of cycle classes span each H_i",
                              True, _wedge_classes_independent(K, Z)))
    return verdict(checks)


def _wedge_classes_independent(K: KoszulComplex, Z: CycleBasis) -> bool:
    """Wedges z_{s_1}∧..∧z_{s_u} give independent classes in H_u for u ≤ c."""
    c = K.ring.codepth
    for u in range(1, min(c, K.n) + 1):
        by_degree = {}
        for S in itertools.combinations(range(c), u):
            by_degree.setdefault(sum(Z.degrees[j] for j in S), []).append(
                functools.reduce(functools.partial(dg_product_elements, K.ring),
                                 map(Z.element, S)))
        if not all(_independent_mod_boundaries(K, elems, u, d)
                   for d, elems in by_degree.items()):
            return False
    return True


def build_koszul(ring: GradedQuotientRing) -> KoszulComplex:
    return KoszulComplex(ring)
