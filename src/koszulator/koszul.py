"""Koszul complex on the variables over R = Q/I, its homology algebra,
and cycle representatives generating degree-one homology.

Generators of K_i are e_S for strictly increasing subsets S of {1..n},
labelled ((), S) so that downstream constructions can replace the empty
tuple with a multi-index.  Elements of K are dicts {S: Polynomial}.
"""

from __future__ import annotations

import functools
import itertools
import math

from .complexes import ChainComplex, FreeModule, GradedMap, _strand_rank, collect
from .polyring import GradedQuotientRing, Polynomial


class CycleError(ValueError):
    pass


def subsets(n: int, i: int):
    """Strictly increasing i-subsets of {1..n} in lex order."""
    return [tuple(s) for s in itertools.combinations(range(1, n + 1), i)]


def wedge_sign(i: int, S):
    """Sign of e_i ∧ e_S -> e_{sorted({i}∪S)}, or (0, None) when i ∈ S."""
    if i in S:
        return 0, None
    below = sum(1 for s in S if s < i)
    merged = tuple(sorted(S + (i,)))
    return (-1) ** below, merged


def koszul_boundary(S, ring):
    """Terms (S∖s_t, (−1)^t x_{s_t}) of ∂e_S, t counted from 0."""
    for t, s in enumerate(S):
        x = ring.variable(s - 1)
        yield S[:t] + S[t + 1:], -x if t % 2 else x


def wedge_cycle(z, S):
    """Terms (T, ±z_i) of z ∧ e_S for a 1-cycle z given by its n coordinates."""
    for i, p in enumerate(z, 1):
        if p.is_zero():
            continue
        sign, T = wedge_sign(i, S)
        if sign:
            yield T, p if sign == 1 else -p


def merge_wedge(S, T):
    """Sign and result of e_S ∧ e_T; (0, None) on a repeated index."""
    sign = 1
    out = S
    for t in T:
        if t in out:
            return 0, None
        # appending e_t on the right moves it left past larger indices
        sign *= (-1) ** sum(1 for s in out if s > t)
        out = tuple(sorted(out + (t,)))
    return sign, out


class KoszulComplex:
    """K on x_1..x_n over R, with ∂(e_S) = Σ_t (−1)^{t+1} x_{s_t} e_{S∖s_t}."""

    def __init__(self, ring: GradedQuotientRing):
        self.ring = ring
        self.n = ring.nvars
        modules = {
            i: FreeModule(ring, [(((), S), i) for S in subsets(self.n, i)])
            for i in range(self.n + 1)
        }
        diffs = {
            i: GradedMap.from_columns(modules[i], modules[i - 1], self.column)
            for i in range(1, self.n + 1)
        }
        self.complex = ChainComplex(ring, modules, diffs)

    def column(self, label):
        """Terms ((w, S∖s_t), ±x_{s_t}) of ∂ on the generator labelled (w, S)
        of any sum of copies of K indexed by w."""
        w, S = label
        return (((w, rest), x) for rest, x in koszul_boundary(S, self.ring))

    # -- elements -------------------------------------------------------------
    def wedge(self, a: dict, b: dict) -> dict:
        """Wedge product of elements given as {subset: Polynomial}."""

        def terms():
            for S, p in a.items():
                for T, q in b.items():
                    sign, merged = merge_wedge(S, T)
                    if sign:
                        yield merged, p * q if sign == 1 else -(p * q)

        return collect(terms(), self.ring)

    def apply_differential(self, elem: dict) -> dict:
        return collect(
            ((rest, p * x) for S, p in elem.items()
             for rest, x in koszul_boundary(S, self.ring)),
            self.ring,
        )


class CycleBasis:
    """Homogeneous 1-cycles z_1..z_c whose classes form a basis of H_1(K)."""

    def __init__(self, K: KoszulComplex, cycles, degrees):
        self.K = K
        self.cycles = list(cycles)  # each a list of n Polynomials
        self.degrees = list(degrees)

    def element(self, j: int) -> dict:
        """z_j as a Koszul element {(i,): Polynomial}."""
        return {
            (i + 1,): p
            for i, p in enumerate(self.cycles[j])
            if not p.is_zero()
        }


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
    f = ring.field
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
            if not f.is_zero(p.constant_term()):
                raise CycleError(f"z_{j} has a unit entry")
        bdry = K.apply_differential(Z.element(j - 1))
        if bdry:
            raise CycleError(f"z_{j} is not a cycle: "
                             f"∂₁z_{j} = {bdry[()].to_string(ring.var_names)}")
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
    its elimination stops there."""
    boundary = K.complex.differential(u + 1)
    target = K.complex.module(u)
    row = {S: r for r, ((_, S), _) in enumerate(target.gens)}
    nb = boundary.source.rank
    source = FreeModule(K.ring, boundary.source.gens + [(None, d)] * len(elems))
    stacked = GradedMap(source, target, {
        (row[S], nb + j): p for j, elem in enumerate(elems) for S, p in elem.items()})
    stacked.entries.update(boundary.entries)
    full = K.complex.strand_rank(u + 1, d) + len(elems)
    return _strand_rank(stacked, d, ceiling=full) == full


def cycles_from_user(K: KoszulComplex, coefficient_lists, degrees=None) -> CycleBasis:
    """User-supplied cycles (lists of n polynomials); validated before use."""
    ring = K.ring
    cycles = [[ring.normal_form(p) for p in z] for z in coefficient_lists]
    if degrees is None:
        degrees = []
        for j, z in enumerate(cycles, 1):
            degs = {p.degree() + 1 for p in z if not p.is_zero()}
            if len(degs) != 1:
                raise CycleError(f"cannot infer a degree for cycle {j}")
            degrees.append(degs.pop())
    basis = CycleBasis(K, cycles, degrees)
    validate_cycles(basis)
    return basis


def homology_dims(K: KoszulComplex, max_d: int):
    """Total dim H_i(K) for i = 0..n, summing strands up to max_d."""
    table = K.complex.homology_table(K.n, max_d)
    return [
        sum(v for (i, _), v in table.items() if i == hom)
        for hom in range(K.n + 1)
    ]


def degree_window(ring: GradedQuotientRing, k: int) -> int:
    """Σ deg g_t + max(1, k)·max deg g_t: the internal-degree window of the
    level-k checks; k = 1 is the certificate's, as H_c(K) lies in degree Σ deg."""
    degs = [g.degree() for g in ring.generators]
    return sum(degs) + max(1, k) * max(degs)


def certify_complete_intersection(K: KoszulComplex, Z: CycleBasis = None) -> dict:
    """Check that H(K) is the exterior algebra on c degree-one classes."""
    ring = K.ring
    c = ring.codepth
    checks = []
    bound = degree_window(ring, 1)  # reaches H_c(K), which lies in degree Σ deg
    dims = homology_dims(K, bound)
    for i in range(K.n + 1):
        expected = math.comb(c, i)
        checks.append(
            {
                "check": f"dim H_{i}(K) == C({c},{i})",
                "expected": expected,
                "actual": dims[i],
                "pass": dims[i] == expected,
            }
        )
    hilb = ring.hilbert_coefficients(bound)
    pred = ring.ci_hilbert_coefficients(bound)
    checks.append(
        {
            "check": "Hilbert series matches complete intersection prediction",
            "expected": pred,
            "actual": hilb,
            "pass": hilb == pred,
        }
    )
    if Z is not None:
        ok = _wedge_classes_independent(K, Z)
        checks.append(
            {
                "check": "wedge products of cycle classes span each H_i",
                "expected": True,
                "actual": ok,
                "pass": ok,
            }
        )
    return {"certified": all(ch["pass"] for ch in checks), "checks": checks}


def _wedge_classes_independent(K: KoszulComplex, Z: CycleBasis) -> bool:
    """Wedges z_{s_1}∧..∧z_{s_u} give independent classes in H_u for u ≤ c."""
    c = K.ring.codepth
    for u in range(1, min(c, K.n) + 1):
        by_degree = {}
        for S in itertools.combinations(range(c), u):
            by_degree.setdefault(sum(Z.degrees[j] for j in S), []).append(
                functools.reduce(K.wedge, map(Z.element, S)))
        if not all(_independent_mod_boundaries(K, elems, u, d)
                   for d, elems in by_degree.items()):
            return False
    return True


def build_koszul(ring: GradedQuotientRing) -> KoszulComplex:
    return KoszulComplex(ring)
