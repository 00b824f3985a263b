"""Graded quotient rings of polynomial rings (`polynomial.Polynomial`).

A GradedQuotientRing holds per-degree normal-form data for Q/I: the
standard monomials of each degree (those that are not the graded-lex
leading monomial of an element of the ideal) and normal forms over them.
Degree d is built from degrees d-1 and d-2 by a small elimination on the
border, the monomials that have a standard parent; any other normal form is
computed from its parent on first use.  The degree cache has no cap: it
grows as far as a computation asks, and every window a check reads passes
`GradedQuotientRing.window` first, in the ring whose degrees it reads.
Products go through one rule, blocks of multiplication (`mul_block`): the
block of p from degree e is every row NF(p·m_k), m_k the standard monomials
of degree e, built in one pass (off the border when p is a variable, else
summed from p's terms) and kept per (p, e), its rows interned.  A strand
matrix places whole blocks, and a product of ring elements p·q is q's
coordinates times p's block (`mul_add`).  Everything here is over the
ring's own field; a strand reduced into another field is reduced from
these blocks (`complexes.GradedMap.strand_matrix`).
"""

from __future__ import annotations

from itertools import accumulate

from .fields import field_from_spec
from .linalg import rref
from .polynomial import (ParseError, Polynomial, RingError, _check_generator, _first_var,
                         _is_name, _shift, monomial_degree, monomial_mul, parse_polynomial)

# no window may reach a degree where dim R_d exceeds this (see `window`)
MAX_QUOTIENT_DIM = 5000


class _DegreeData:
    """Degree d of Q/I: `standard` lists the monomials that are not the
    graded-lex leading monomial of any element of I_d, a basis of (Q/I)_d,
    graded-lex descending (x1 largest); `nf` maps a monomial m to NF(m) as
    (standard index, coefficient) pairs, for the border from the build and
    for any other m once `GradedQuotientRing._nf_row` is asked for it."""

    __slots__ = ("standard", "nf")

    def __init__(self, standard, nf):
        self.standard = standard
        self.nf = nf


class GradedQuotientRing:
    """Q = k[x1..xn] / I for a homogeneous ideal I, handled degree by degree.

    The degree cache is filled lazily, from the bottom up, as far as a
    computation asks: each degree is built from the two below it (see
    `_build_degree`).
    """

    def __init__(self, var_names, generators, field):
        self.var_names = list(var_names)
        self.nvars = len(self.var_names)
        if len(set(self.var_names)) != self.nvars or self.nvars == 0:
            raise RingError("variable names must be distinct and non-empty")
        self.field = field
        for g in generators:
            _check_generator(g, self.var_names)
        self.generators = list(generators)
        one = ((0, field.one()),)
        self._degrees = [_DegreeData([(0,) * self.nvars], {(0,) * self.nvars: one})]
        # normal-form rows and multiplication rows repeat few distinct values:
        # each is stored once
        self._rows = {one: one}
        # poly -> {e: (id, block)} of `mul_block`, each row one of `_rows`,
        # and block -> (id, block), which gives equal blocks one id and one copy
        self._blocks = {}
        self._block_ids = {}
        # strand ranks by a key that fixes the strand matrix exactly, shared
        # by every map over this ring (see `GradedMap.strand_rank`)
        self.rank_memo = {}

    @property
    def codepth(self) -> int:
        return len(self.generators)

    def variable(self, i) -> Polynomial:
        """The i-th variable (0-based)."""
        return Polynomial(self.nvars, self.field, {_shift((0,) * self.nvars, i, 1): 1})

    def one(self) -> Polynomial:
        return Polynomial.constant(self.nvars, self.field, self.field.one())

    # -- degree strands -------------------------------------------------------
    def _degree_data(self, d: int) -> _DegreeData:
        if d < 0:
            raise ValueError("negative degree")
        while len(self._degrees) <= d:
            self._degrees.append(self._build_degree(len(self._degrees)))
        return self._degrees[d]

    def _build_degree(self, d: int) -> _DegreeData:
        """Degree d (>= 1) from the cached degrees d-1 and d-2.

        A monomial m of degree d is x_j times each parent m/x_j, so
        m = x_j NF(m/x_j) in Q/I, a combination of border monomials: those
        with a standard parent.  Every standard monomial of degree d is on
        the border, because a divisor of a standard monomial is standard.

        The Koszul complex on the variables is exact in homological degree 1,
        so with V = (Q/I)_1 = k^n, multiplication gives

            (Q/I)_d = (V ⊗ (Q/I)_{d-1}) / (C_d + G_d),

        where C_d holds x_i ⊗ NF(x_j s) - x_j ⊗ NF(x_i s) for each standard
        monomial s of degree d-2 and i < j, and G_d one lift of each
        generator of degree d, each monomial m taken to x_j ⊗ NF(m/x_j).
        Sending x_j ⊗ t to x_j t maps V ⊗ (Q/I)_{d-1} onto the span of the
        border, with kernel spanned by the relations of C_d whose two parents
        x_i s, x_j s are standard, so the images of C_d and G_d span the
        part of I_d on the border.  One RREF of them, with the border as
        columns in graded-lex descending order, leaves the standard
        monomials as the free columns and gives the NF of every other border
        monomial as -(its row on them).  Only the border is stored here;
        `_nf_row` computes any other NF from it on first use.
        """
        f = self.field
        n = self.nvars
        low = self._degrees[d - 1]
        standard_low = set(low.standard)

        border = sorted({_shift(t, j, 1) for t in low.standard for j in range(n)},
                        reverse=True)
        column = {b: k for k, b in enumerate(border)}

        def reduce_parents(*terms):
            """sum c x_j NF(m/x_j) over the (c, m, j) given, as a {column:
            scalar} row on the border."""
            acc = {}  # summed with + and *, brought back into the field once
            for c, m, j in terms:
                for s, a in self._nf_row(_shift(m, j, -1), d - 1):
                    b = column[_shift(low.standard[s], j, 1)]
                    acc[b] = acc.get(b, 0) + c * a
            return {b: f.of(a) for b, a in acc.items() if not f.is_zero(a)}

        relations = []
        for s in self._degrees[d - 2].standard if d >= 2 else ():
            for i in range(n):
                for j in range(i + 1, n):
                    m = _shift(_shift(s, i, 1), j, 1)
                    relations.append(reduce_parents((1, m, i), (-1, m, j)))
        for g in self.generators:
            if g.degree() == d:
                relations.append(reduce_parents(
                    *((c, m, _first_var(m)) for m, c in g.terms.items())))
        rows = [rel for rel in relations if rel]
        red, piv = rref(rows, f) if rows else ([], [])

        pivot_rows = dict(zip(piv, red))
        free = [k for k in range(len(border)) if k not in pivot_rows]
        free_index = {k: s for s, k in enumerate(free)}
        # only a candidate, a monomial whose every parent is standard, can be
        # standard; a free non-candidate would mean missing relations
        standard = [border[k] for k in free
                    if all(_shift(border[k], j, -1) in standard_low
                           for j in range(n) if border[k][j])]
        if len(standard) != len(free):
            raise ArithmeticError(
                f"degree {d}: {len(standard)} standard monomials, but the "
                f"quotient (V ⊗ R_{d - 1}) / (C_{d} + G_{d}) has dimension {len(free)}"
            )
        nf = {b: ((s, f.one()),) for s, b in enumerate(standard)}
        for k, row in pivot_rows.items():
            # a reduced row is 1 at its pivot and 0 at the other pivots
            nf[border[k]] = tuple((free_index[c], f.neg(a)) for c, a in sorted(row.items())
                                  if c != k)
        return _DegreeData(standard, {m: self._rows.setdefault(r, r) for m, r in nf.items()})

    def _nf_row(self, m, d: int):
        """NF(m) of a degree-d monomial as (standard index, coefficient)
        pairs.  Off the border NF(m) = x_j NF(m/x_j) = Σ c_s NF(x_j s), j
        the first variable of m and each x_j s on the border: a loop walks
        down to the nearest stored parent and stores each row it computes."""
        data = self._degree_data(d)
        row = data.nf.get(m)
        if row is not None:
            return row
        if monomial_degree(m) != d:
            raise RingError("normal form needs a homogeneous input")
        if not data.standard:  # (Q/I)_d = 0, and so is every degree above
            return ()
        chain = []
        while row is None:
            j = _first_var(m)
            chain.append((m, d, j))
            m, d = _shift(m, j, -1), d - 1
            row = self._degrees[d].nf.get(m)
        f, rows = self.field, self._rows
        for m, d, j in reversed(chain):
            standard, nf = self._degrees[d - 1].standard, self._degrees[d].nf
            acc = {}
            for s, c in row:
                for t, a in nf[_shift(standard[s], j, 1)]:
                    acc[t] = acc.get(t, 0) + c * a
            row = tuple((t, f.of(a)) for t, a in sorted(acc.items()) if not f.is_zero(a))
            row = nf[m] = rows.setdefault(row, row)
        return row

    def dim_quotient(self, d: int) -> int:
        """dim_k (Q/I)_d."""
        return len(self._degree_data(d).standard)

    def mul_add(self, acc: dict, block, q: Polynomial, e: int, c=1):
        """acc[t] += c·NF(poly·q)_t for homogeneous poly and q, q of degree e
        and block = `mul_block(poly, e)[1]`: NF(q)'s coordinates times the
        block's rows, summed with + and *; the caller brings acc into the
        field."""
        nf = self._degrees[e].nf  # built by `mul_block`
        for m, a in q.terms.items():
            for s, b in nf.get(m) or self._nf_row(m, e):
                cab = c * a * b
                for t, v in block[s]:
                    acc[t] = acc.get(t, 0) + cab * v

    def mul_blocks(self, poly: Polynomial) -> dict:
        """The ring's table {e: `mul_block(poly, e)`} so far, to keep."""
        return self._blocks.setdefault(poly, {})

    def mul_block(self, poly: Polynomial, e: int):
        """(id, block) of multiplication by the homogeneous `poly` from degree
        e, built in one pass and kept: block[k] is NF(poly·m_k) for the k-th
        standard monomial m_k, as (standard index, scalar) pairs.  For a
        variable x_v the rows are the border rows of x_v·m_k; else row k is
        Σ c·NF(μ·m_k) over poly's terms c·μ, brought into the field once and
        interned.  Equal blocks share one id and one copy."""
        blocks = self.mul_blocks(poly)
        if e in blocks:
            return blocks[e]
        standard, terms = self._degree_data(e).standard, poly.terms.items()
        mu, c = next(iter(terms))
        d = e + monomial_degree(mu)
        f, p, nf, interned = self.field, self.field.p, self._degree_data(d).nf, self._rows
        if d == e + 1 and c == 1 and len(terms) == 1:
            block = tuple(nf[monomial_mul(mu, m)] for m in standard)  # interned by `_build_degree`
        else:
            rows = []
            for m in standard:
                acc = {}
                for mu, c in terms:
                    mm = monomial_mul(mu, m)
                    for s, a in nf.get(mm) or self._nf_row(mm, d):
                        acc[s] = acc.get(s, 0) + c * a
                row = []
                for s, a in sorted(acc.items()):
                    a = a % p if p else f.of(a)  # over 𝔽_p the sums are ints
                    if a:
                        row.append((s, a))
                rows.append(interned.setdefault(tuple(row), tuple(row)))
            block = tuple(rows)
        blocks[e] = self._block_ids.setdefault(block, (len(self._block_ids), block))
        return blocks[e]

    def polynomial(self, sums: dict) -> Polynomial:
        """Σ a·m_s over {degree: {standard index s: a}} sums, each a brought
        into the field once and dropped if zero."""
        f, p, out = self.field, self.field.p, Polynomial(self.nvars, self.field)
        for d, acc in sums.items():
            standard = self._degree_data(d).standard
            for s, a in acc.items():
                a = a % p if p else f.of(a)  # over 𝔽_p the sums are ints
                if a:
                    out.terms[standard[s]] = a
        return out

    def _nf_sum(self, terms, d: int) -> dict:
        """Σ c·NF(m) over the (m, c) pairs given, each m of degree d, as
        {standard index: coefficient}, summed with + and *."""
        acc = {}
        for m, c in terms:
            for s, a in self._nf_row(m, d):
                acc[s] = acc.get(s, 0) + c * a
        return acc

    def normal_form(self, *polys: Polynomial) -> Polynomial:
        """Normal form of the sum of `polys`, of any degrees: one sum off the
        normal-form table per degree."""
        by_degree = {}
        for p in polys:
            for m, c in p.terms.items():
                by_degree.setdefault(monomial_degree(m), []).append((m, c))
        return self.polynomial({d: self._nf_sum(terms, d) for d, terms in by_degree.items()})

    def window(self, max_d: int) -> int:
        """The internal-degree window max_d, checked: it may not pass max(the
        limit, Σ deg), past which the CI prediction of dim R_d is constant or
        more than d, nor may that prediction pass the limit.  It is exact for a
        CI, so the degrees are built in turn and each must match it."""
        top = max(MAX_QUOTIENT_DIM, sum(g.degree() for g in self.generators))
        if max_d > top:
            raise RingError(f"degree window {max_d} is above {top}, the largest accepted: "
                            f"max({MAX_QUOTIENT_DIM}, the sum of the generator degrees)")
        dims = self.ci_hilbert_coefficients(max_d)
        for d, dim in enumerate(dims):
            if dim > MAX_QUOTIENT_DIM:
                raise RingError(f"degree window {max_d} reaches degree {d}, where dim R_{d} "
                                f"is predicted to be {dim}, more than {MAX_QUOTIENT_DIM}")
        for d, dim in enumerate(dims):
            if self.dim_quotient(d) != dim:
                raise RingError(f"not a complete intersection: dim R_{d} is "
                                f"{self.dim_quotient(d)}, not the predicted {dim}")
        return max_d

    def hilbert_coefficients(self, up_to: int):
        """dim_k (Q/I)_d for d = 0..up_to (inclusive)."""
        return [self.dim_quotient(d) for d in range(up_to + 1)]

    def ci_hilbert_coefficients(self, up_to: int):
        """Series coefficients of prod(1-t^{d_t}) / (1-t)^n, the complete
        intersection prediction for the Hilbert series."""
        out = [1] + [0] * up_to
        for g in self.generators:  # times 1 - t^deg g
            dg = g.degree()
            out = [c - (out[i - dg] if i >= dg else 0) for i, c in enumerate(out)]
        for _ in range(self.nvars):  # divided by 1 - t: partial sums
            out = list(accumulate(out))
        return out


def load_ring_file(path) -> GradedQuotientRing:
    """Read the ring input format: 'field ...', 'vars a,b,c', 'gen <poly>' lines."""
    field = None
    var_names = None
    gen_texts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("field "):
                if field is not None:
                    raise RingError(f"line {lineno}: repeated 'field' line")
                field = field_from_spec(line[len("field "):].strip())
            elif line.startswith("vars "):
                if var_names is not None:
                    raise RingError(f"line {lineno}: repeated 'vars' line")
                var_names = [v.strip() for v in line[len("vars "):].split(",")]
                for k, v in enumerate(var_names):
                    if not _is_name(v):
                        raise RingError(f"line {lineno}: variable name {v!r} must be a letter "
                                        "or '_' followed by letters, digits or '_'")
                    if v in var_names[:k]:
                        raise RingError(f"line {lineno}: variable name {v!r} is repeated")
            elif line.startswith("gen "):
                gen_texts.append((lineno, line[len("gen "):].strip()))
            else:
                raise RingError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
    if field is None:
        raise RingError("missing 'field' line")
    if var_names is None:
        raise RingError("missing 'vars' line")
    if not gen_texts:
        raise RingError("missing 'gen' lines: the ideal needs at least one generator")
    gens = []
    for lineno, text in gen_texts:
        try:
            gens.append(parse_polynomial(text, var_names, field))
            _check_generator(gens[-1], var_names)
        except (ParseError, RingError) as exc:
            raise RingError(f"line {lineno}: {exc}") from exc
    return GradedQuotientRing(var_names, gens, field)
