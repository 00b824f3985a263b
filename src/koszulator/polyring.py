"""Sparse multivariate polynomials and graded quotient rings.

A monomial is a tuple of exponents; polynomials map monomials to nonzero
field scalars.  A GradedQuotientRing holds per-degree normal-form data for
Q/I: the standard monomials of each degree (those that are not the
graded-lex leading monomial of an element of the ideal) and normal forms
over them.  Degree d is built from degrees d-1 and d-2 by a small
elimination on the border, the monomials that have a standard parent; any
other normal form is computed from its parent on first use.  The degree
cache has no cap: it grows as far as a computation asks, and the CLI bounds
the windows it is asked for.
Every normal form is one sparse sum off these tables (`_nf_sum`): that of
a sum of ring elements, and each row of the cached block of multiplication
by a polynomial from one degree to another, the unit that strand matrices
are assembled from.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .fields import FieldError, field_from_spec
from .linalg import rref


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingError(ValueError):
    pass


def monomial_degree(mono) -> int:
    return sum(mono)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _shift(mono, j: int, k: int):
    """mono times x_j^k (k may be negative)."""
    return mono[:j] + (mono[j] + k,) + mono[j + 1:]


def _first_var(mono) -> int:
    return next(j for j, e in enumerate(mono) if e)


class Polynomial:
    """Sparse polynomial; terms maps exponent tuples to nonzero scalars."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, field, terms=None):
        self.nvars = nvars
        self.field = field
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = field.of(c)
                if not field.is_zero(c):
                    self.terms[m] = c

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls, nvars, field):
        return cls(nvars, field)

    @classmethod
    def constant(cls, nvars, field, c):
        return cls(nvars, field, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, field, i):
        """The i-th variable (0-based)."""
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, field, {tuple(e): field.one()})

    # -- arithmetic -----------------------------------------------------------
    # sums and products are taken with + and *, and each coefficient is
    # brought into the field once, by the constructor
    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.nvars, self.field, terms)

    def __neg__(self):
        out = Polynomial(self.nvars, self.field)
        out.terms = {m: self.field.neg(c) for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.nvars, self.field, terms)

    def scale(self, c):
        c = self.field.of(c)
        return Polynomial(self.nvars, self.field, {m: v * c for m, v in self.terms.items()})

    def mul_monomial(self, mono):
        out = Polynomial(self.nvars, self.field)
        out.terms = {monomial_mul(m, mono): c for m, c in self.terms.items()}
        return out

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(map(monomial_degree, self.terms)) if self.terms else None

    def is_homogeneous(self, d=None) -> bool:
        degs = {monomial_degree(m) for m in self.terms}
        if d is None:
            return len(degs) <= 1
        return degs <= {d}

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Polynomial({self.to_string(['x%d' % (i + 1) for i in range(self.nvars)])})"

    def to_string(self, var_names) -> str:
        if not self.terms:
            return "0"
        f = self.field
        bits = []
        for m in sorted(self.terms, key=lambda m: (monomial_degree(m), m), reverse=True):
            c = self.terms[m]
            s = f.to_str(c)
            factors = []
            for name, e in zip(var_names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if factors:
                if s == "1":
                    body = "*".join(factors)
                elif s == "-1":
                    body = "-" + "*".join(factors)
                else:
                    body = s + "*" + "*".join(factors)
            else:
                body = s
            bits.append(body)
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out


# -- parser --------------------------------------------------------------


def parse_polynomial(text: str, var_names, field) -> Polynomial:
    """Parse signed sums of terms like '2*x^2*y - 1/3*z + 5'."""
    nvars = len(var_names)
    var_index = {name: i for i, name in enumerate(var_names)}
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected a number", start)
        return int(text[start:pos])

    def read_name() -> str:
        nonlocal pos
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    result = Polynomial.zero(nvars, field)
    skip_ws()
    if pos >= n:
        raise ParseError("empty input", pos)
    first = True
    while pos < n:
        skip_ws()
        if pos >= n:
            break
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            skip_ws()
        elif not first:
            raise ParseError(f"expected '+' or '-', got {text[pos]!r}", pos)
        first = False
        # one term: optional coefficient, then *-separated variable powers
        coeff = Fraction(sign)
        exps = [0] * nvars
        saw_factor = False
        if pos < n and text[pos].isdigit():
            num = read_int()
            skip_ws()
            if pos < n and text[pos] == "/":
                pos += 1
                skip_ws()
                den_pos = pos
                den = read_int()
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            saw_factor = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
        while pos < n and (text[pos].isalpha() or text[pos] == "_"):
            name_pos = pos
            name = read_name()
            if name not in var_index:
                raise ParseError(f"unknown variable {name!r}", name_pos)
            e = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                e = read_int()
            exps[var_index[name]] += e
            saw_factor = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
            else:
                break
        if not saw_factor:
            raise ParseError("expected a term", pos)
        try:
            c = field.of(coeff)
        except FieldError as exc:
            raise ParseError(str(exc), pos) from exc
        result = result + Polynomial(nvars, field, {tuple(exps): c})
        skip_ws()
    return result


# -- graded quotient ring --------------------------------------------------


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
        self.generators = []
        for g in generators:
            if g.is_zero():
                raise RingError("zero ideal generator")
            if not g.is_homogeneous():
                raise RingError(
                    f"ideal generator {g.to_string(self.var_names)!r} is not homogeneous"
                )
            if g.degree() < 2:
                raise RingError("ideal generators must have degree >= 2")
            self.generators.append(g)
        one = ((0, field.one()),)
        self._degrees = [_DegreeData([(0,) * self.nvars], {(0,) * self.nvars: one})]
        # normal-form rows and block rows repeat few distinct values: each is
        # stored once per field (1 is the int 1 over ℚ and 𝔽_p alike, so
        # only the field tells a ℚ row from an equal 𝔽_p one)
        self._rows = {field: {one: one}}
        # (poly, e, field) -> (id, block) of `mul_block`, and (field, block)
        # -> (id, block), which gives equal blocks one id and one copy
        self._blocks = {}
        self._block_ids = {}
        # strand ranks by a key that fixes the strand matrix exactly, shared
        # by every complex over this ring (see `complexes._strand_rank`)
        self.rank_memo = {}

    @property
    def codepth(self) -> int:
        return len(self.generators)

    def variable(self, i) -> Polynomial:
        return Polynomial.variable(self.nvars, self.field, i)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.nvars, self.field)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.nvars, self.field, self.field.one())

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.var_names, self.field)

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
        red, piv = rref(rows, f, len(border)) if rows else ([], [])

        pivot_rows = dict(zip(piv, red))
        free = [k for k in range(len(border)) if k not in pivot_rows]
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
            nf[border[k]] = tuple((s, f.neg(row[c])) for s, c in enumerate(free) if row[c])
        rows = self._rows[f]
        return _DegreeData(standard, {m: rows.setdefault(r, r) for m, r in nf.items()})

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
        f, rows = self.field, self._rows[self.field]
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

    def degree_piece_basis(self, d: int):
        """Standard monomial basis of (Q/I)_d, graded-lex descending."""
        return list(self._degree_data(d).standard)

    def mul_block(self, poly: Polynomial, e: int, field):
        """(id, block) of multiplication by `poly` from degree e: block[k]
        lists the (standard index, scalar) pairs of NF(poly·m_k) for the
        k-th standard monomial m_k of degree e.  The pairs are summed and
        brought into `field` once: the ring's own, or a prime field that a
        ℚ ring is reduced into, where a denominator divisible by p raises
        FieldError.  Blocks are cached, and equal blocks over one field
        share one id; the field is part of that key, as 1 is the int 1 over
        ℚ and 𝔽_p alike, and an integer matrix can have another rank mod p."""
        key = (poly, e, field)
        if key not in self._blocks:
            d = e + poly.degree()
            rows = self._rows.setdefault(field, {})
            block = []
            for m in self._degree_data(e).standard:
                acc = self._nf_sum(
                    ((monomial_mul(mu, m), c) for mu, c in poly.terms.items()), d)
                row = ((s, field.of(a)) for s, a in sorted(acc.items()))
                row = tuple((s, a) for s, a in row if a)
                block.append(rows.setdefault(row, row))
            block = tuple(block)
            ids = self._block_ids
            self._blocks[key] = ids.setdefault((field, block), (len(ids), block))
        return self._blocks[key]

    def _nf_sum(self, terms, d: int) -> dict:
        """Σ c·NF(m) over the (m, c) pairs given, each m of degree d, as
        {standard index: coefficient}.  The sum is taken with + and *, and
        each caller brings it into its own field once."""
        acc = {}
        for m, c in terms:
            for s, a in self._nf_row(m, d):
                acc[s] = acc.get(s, 0) + c * a
        return acc

    def normal_form(self, *polys: Polynomial) -> Polynomial:
        """Normal form of the sum of `polys`, of any degrees: one sum off the
        normal-form table per degree."""
        f = self.field
        by_degree = {}
        for p in polys:
            for m, c in p.terms.items():
                by_degree.setdefault(monomial_degree(m), []).append((m, c))
        out = Polynomial(self.nvars, f)
        for d, terms in by_degree.items():
            standard = self._degree_data(d).standard
            for s, a in self._nf_sum(terms, d).items():
                a = f.of(a)
                if not f.is_zero(a):
                    out.terms[standard[s]] = a
        return out

    def nf_coeff_vector(self, poly: Polynomial, d: int):
        """Coefficients of the degree-d normal form over the standard basis."""
        f = self.field
        vec = [f.zero()] * self.dim_quotient(d)
        for s, a in self._nf_sum(poly.terms.items(), d).items():
            vec[s] = f.of(a)
        return vec

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
                if any(not v for v in var_names):
                    raise RingError(f"line {lineno}: empty variable name")
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
        except ParseError as exc:
            raise RingError(f"line {lineno}: {exc}") from exc
    return GradedQuotientRing(var_names, gens, field)


def ring_from_strings(var_names, gen_texts, field):
    gens = [parse_polynomial(t, var_names, field) for t in gen_texts]
    return GradedQuotientRing(var_names, gens, field)
