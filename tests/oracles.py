"""Reference implementations that only the tests use.

Each recomputes something the program computes by another route: a second
extraction of the cycles (a reduced-echelon kernel basis modulo
boundaries), dense-matrix helpers over `koszulator.linalg`, the lex rank of
a multi-index, the inverse of the divided-power bijection, a ring built
from strings, the splitting's quotient M^{k+1}/M^k ranked on its own
strands, and the term-by-term product of polynomials with the sums of
products that the program reads off its blocks of multiplication.  The
small conveniences that only tests read (a map's entry, the identity map,
a degree's standard basis and coordinates, the styles and tiling of a
block layout, and the inverse of the JSON export) are here too.  None of
it is reached from a command.
"""

from __future__ import annotations

import json
from collections import Counter

from koszulator import linalg
from koszulator.complexes import ChainComplex, FreeModule, GradedMap
from koszulator.koszul import (
    CycleBasis,
    CycleError,
    KoszulComplex,
    check,
    degree_window,
    tuple_count,
    validate_cycles,
)
from koszulator.polyring import GradedQuotientRing, Polynomial, parse_polynomial


def ring_from_strings(var_names, gen_texts, field):
    gens = [parse_polynomial(t, var_names, field) for t in gen_texts]
    return GradedQuotientRing(var_names, gens, field)


# -- conveniences on the program's objects --------------------------------------


def zero(ring):
    """The zero polynomial of `ring`."""
    return Polynomial(ring.nvars, ring.field)


def entry(gmap, i, j):
    """Entry (i, j) of a `GradedMap`, the zero polynomial where absent."""
    return gmap.entries.get((i, j), zero(gmap.source.ring))


def identity(module):
    one = module.ring.one()
    return GradedMap(module, module, {(i, i): one for i in range(module.rank)})


def degree_piece_basis(ring, d: int):
    """Standard monomial basis of (Q/I)_d, graded-lex descending."""
    return list(ring._degree_data(d).standard)


def nf_coeff_vector(ring, poly, d: int):
    """Coefficients of the degree-d normal form over the standard basis."""
    f = ring.field
    vec = [f.of(0)] * ring.dim_quotient(d)
    for s, a in ring._nf_sum(poly.terms.items(), d).items():
        vec[s] = f.of(a)
    return vec


def styles_used(layout):
    """The styles of a `render.BlockLayout`'s nonzero blocks, sorted."""
    return sorted({b.style for b in layout.blocks if b.style != "zero"})


def tiles_exactly(layout) -> bool:
    """The blocks of a `render.BlockLayout` tile its full shape with no gap
    or overlap."""
    covered = Counter()
    for b in layout.blocks:
        for r in range(b.row0, b.row0 + b.nrows):
            for c in range(b.col0, b.col0 + b.ncols):
                covered[(r, c)] += 1
    return all(
        covered[(r, c)] == 1 for r in range(layout.nrows) for c in range(layout.ncols)
    )


def import_map_json(text: str, ring: GradedQuotientRing) -> GradedMap:
    """The inverse of `render.export_map_json`."""
    data = json.loads(text)

    def module(labels):
        return FreeModule(
            ring,
            [((tuple(l["tuple"]), tuple(l["wedge"])), l["twist"]) for l in labels],
        )

    src = module(data["sourceLabels"])
    tgt = module(data["targetLabels"])
    entries = {}
    for r, c, s in data["entries"]:
        entries[(r, c)] = parse_polynomial(s, ring.var_names, ring.field)
    return GradedMap(src, tgt, entries)


# -- the splitting's quotient, ranked on its own strands --------------------------


def quotient_complex(C, D) -> ChainComplex:
    """Q = D/C for a subcomplex C that is the back of each D_i: D's front
    generators, with the block of ∂ᴰ in their rows and columns."""
    cut = {i: D.module(i).rank - C.module(i).rank for i in D.modules}
    modules = {i: FreeModule(D.ring, D.module(i).gens[:n]) for i, n in cut.items()}
    empty = FreeModule(D.ring, [])
    diffs = {i: GradedMap(modules.get(i, empty), modules.get(i - 1, empty),
                          {(r, c): p for (r, c), p in dmap.entries.items()
                           if r < cut.get(i - 1, 0) and c < cut.get(i, 0)})
             for i, dmap in D.differentials.items()}
    return ChainComplex(D.ring, modules, diffs, defect=None)


def splitting_by_quotient(tower, k: int, Q) -> dict:
    """`conetower.verify_splitting`'s record, with dim H_i(Q)_d ranked on
    the strands of Q = `quotient_complex(tower[k], tower[k + 1])`."""
    C, D = tower[k], tower[k + 1]
    max_i, max_d = C.top, degree_window(C.ring, k + 1)
    ranks = {}
    for i in range(max_i + 1):
        for d in range(max_d + 1):
            ranks[(i, d)] = (D.strand_homology_dim(i, d) + C.strand_homology_dim(i - 1, d)
                             - Q.strand_homology_dim(i, d) - ranks.get((i - 1, d), 0))
    failures = [key for key, r in ranks.items() if r and key != (0, 0)]
    corner_iso = (C.strand_homology_dim(0, 0) == D.strand_homology_dim(0, 0)
                  == ranks[(0, 0)] == 1)
    return check(f"H(f^{k}) = 0 on strands i ≤ {max_i}, d ≤ {max_d}",
                 not failures and corner_iso, witnesses=failures, degree_zero_iso=corner_iso)


# -- the term-by-term product ---------------------------------------------------


def multiply(p, q, c=1):
    """c·p·q in k[x1..xn], term by term, each coefficient brought into the
    field once (by the constructor)."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            terms[m] = terms.get(m, 0) + c * c1 * c2
    return Polynomial(p.nvars, p.field, terms)


def collect(terms, ring) -> dict:
    """`complexes.collect` by the term-by-term product: each (key, p, q[, c])
    multiplied out, the products summed per key and the sums taken to
    normal form, zeros dropped."""
    by_key = {}
    for key, p, q, *c in terms:
        by_key.setdefault(key, []).append(multiply(p, q, *c))
    sums = ((key, ring.normal_form(*ps)) for key, ps in by_key.items())
    return {key: s for key, s in sums if not s.is_zero()}


def compose(f, g):
    """f after g as {(i, j): Σ_k NF(f_ik·g_kj)}, term by term."""
    return collect((((i, j), p, q) for (i, k), p in f.entries.items()
                    for (kk, j), q in g.entries.items() if k == kk), f.source.ring)


# -- dense matrices over linalg -------------------------------------------------


def _sparse(rows, field):
    """{column: scalar} rows of a matrix given by such rows or by dense rows,
    each scalar taken into the field and dropped if zero there, and the
    column count the rows reach."""
    out = []
    ncols = 0
    for row in rows:
        if isinstance(row, dict):
            if row:
                ncols = max(ncols, max(row) + 1)
            items = row.items()
        else:
            ncols = max(ncols, len(row))
            items = enumerate(row)
        out.append({j: a for j, a in ((j, field.of(a)) for j, a in items) if a})
    return out, ncols


def rank(rows, field) -> int:
    """`linalg.rank` of dense or {column: scalar} rows."""
    return linalg.rank(_sparse(rows, field)[0], field)


def rref(rows, field, ncols: int | None = None):
    """`linalg.rref` as (dense rows, pivot columns); the rows have ncols
    entries, by default as many as the widest input row reaches."""
    rows, reach = _sparse(rows, field)
    ncols = reach if ncols is None else ncols
    red, piv = linalg.rref(rows, field)
    dense = []
    for row in red:
        v = [field.of(0)] * ncols
        for j, x in row.items():
            v[j] = x
        dense.append(v)
    return dense, piv


def transpose(rows, ncols: int):
    """Columns of a matrix given by {column: scalar} rows, as such rows."""
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
    return cols


def nullspace(rows, field, ncols: int):
    """Basis of the right kernel, one vector per free column (RREF convention)."""
    if ncols == 0:
        return []
    red, piv = rref(rows, field, ncols)
    piv_set = set(piv)
    basis = []
    for j in range(ncols):
        if j in piv_set:
            continue
        v = [field.of(0)] * ncols
        v[j] = field.one()
        for r, c in enumerate(piv):
            v[c] = field.neg(red[r][j])
        basis.append(v)
    return basis


def reduce_against(vec, red_rows, pivots, field):
    """Reduce vec against rows already in RREF; returns the residual."""
    v = list(vec)
    for row, c in zip(red_rows, pivots):
        if not field.is_zero(v[c]):
            f = v[c]
            v = [field.of(x - f * y) for x, y in zip(v, row)]
    return v


def mat_vec(rows, vec, field):
    support = [(j, b) for j, b in enumerate(vec) if not field.is_zero(b)]
    out = []
    for row in rows:
        s = field.of(0)
        for j, b in support:
            if not field.is_zero(row[j]):
                s = field.of(s + row[j] * b)
        out.append(s)
    return out


# -- a second cycle extraction ------------------------------------------------------


def _element_from_coordinates(K: KoszulComplex, vec, i: int, d: int) -> dict:
    ring = K.ring
    f = ring.field
    out = {}
    pos = 0
    for (_, S), twist in K.complex.module(i).gens:
        piece = d - twist
        if piece < 0:
            continue
        basis = degree_piece_basis(ring, piece)
        terms = {}
        for m in basis:
            c = vec[pos]
            pos += 1
            if not f.is_zero(c):
                terms[m] = c
        if terms:
            out[S] = Polynomial(ring.nvars, f, terms)
    return out


def cycles_by_echelon(K: KoszulComplex) -> CycleBasis:
    """Deterministic extraction from scratch: ascending internal degree,
    reduced-echelon kernel basis modulo boundaries, ordered by pivot."""
    ring = K.ring
    f = ring.field
    c = ring.codepth
    found = []
    degrees = []
    top = max(g.degree() for g in ring.generators)  # H_1(K) = I/mI lives here
    d = 1
    while len(found) < c:
        if d > top:
            raise CycleError("ran out of degrees while extracting cycles")
        d1 = K.complex.differential(1)
        rows, nr, nc = d1.strand_matrix(d)
        if nc:
            kernel = nullspace(rows, f, nc)
        else:
            kernel = []
        if kernel:
            d2 = K.complex.differential(2)
            brows, bnr, bnc = d2.strand_matrix(d)
            red, piv = rref(transpose(brows, bnc), f, bnr)
            fresh = []
            for v in kernel:
                v = reduce_against(v, red, piv, f)
                if any(not f.is_zero(x) for x in v):
                    fresh.append(v)
            reps, _ = rref(fresh, f)
            for v in reps:
                if len(found) >= c:
                    break
                elem = _element_from_coordinates(K, v, 1, d)
                found.append([elem.get((i + 1,), zero(ring)) for i in range(ring.nvars)])
                degrees.append(d)
        d += 1
    basis = CycleBasis(K, found, degrees)
    validate_cycles(basis)
    return basis


# -- multi-indices and divided powers ---------------------------------------------


def tuple_rank(c: int, t) -> int:
    """Lex rank of a non-decreasing tuple over 1..c."""
    k = len(t)
    prev = 1
    r = 0
    for pos, v in enumerate(t):
        if not (prev <= v <= c):
            raise ValueError(f"not a valid multi-index: {t}")
        rest = k - pos - 1
        for a in range(prev, v):
            r += tuple_count(c - a + 1, rest)
        prev = v
    return r


def tuple_unrank(c: int, k: int, r: int):
    if not (0 <= r < tuple_count(c, k)):
        raise ValueError(f"rank {r} out of range for (c={c}, k={k})")
    out = []
    prev = 1
    for pos in range(k):
        rest = k - pos - 1
        for a in range(prev, c + 1):
            block = tuple_count(c - a + 1, rest)
            if r < block:
                out.append(a)
                prev = a
                break
            r -= block
    return tuple(out)


def divided_to_tuple(exps):
    out = []
    for i, e in enumerate(exps, 1):
        if e < 0:
            raise ValueError("negative exponent")
        out.extend([i] * e)
    return tuple(out)
