"""Sparse multivariate polynomials and their parser.

A monomial is a tuple of exponents; a Polynomial maps monomials to nonzero
field scalars.  Sums and negation are here; every product goes through the
quotient ring (`polyring.GradedQuotientRing`).
The parser keeps integer coefficients as ints and builds a Fraction
(`fields.fraction`) only after a `/`, so a ring file without one never
imports `fractions`.
"""

from __future__ import annotations

from operator import add

from . import fields
from .fields import FieldError


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingError(ValueError):
    pass


def monomial_degree(mono) -> int:
    return sum(mono)


def monomial_mul(a, b):
    return tuple(map(add, a, b))


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
    def constant(cls, nvars, field, c):
        return cls(nvars, field, {(0,) * nvars: c})

    # -- arithmetic -----------------------------------------------------------
    # sums are taken with +, and each coefficient is brought into the field
    # once, by the constructor
    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.nvars, self.field, terms)

    def __neg__(self):
        out = Polynomial(self.nvars, self.field)
        out.terms = {m: self.field.neg(c) for m, c in self.terms.items()}
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

    def __eq__(self, other):
        return isinstance(other, Polynomial) and (self.nvars, self.terms) == (
            other.nvars, other.terms)

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


def _is_name(text: str) -> bool:
    """Whether `parse_polynomial` reads all of text as one variable name."""
    return (text[:1].isalpha() or text[:1] == "_") and all(
        ch.isalnum() or ch == "_" for ch in text)


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

    result = Polynomial(nvars, field)
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
        coeff = sign
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
                coeff = fields.fraction(sign * num, den)
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


def _check_generator(g: Polynomial, var_names):
    """Refuse an ideal generator that is zero, not homogeneous, or of degree < 2."""
    if g.is_zero():
        raise RingError("zero ideal generator")
    if not g.is_homogeneous():
        raise RingError(f"ideal generator {g.to_string(var_names)!r} is not homogeneous")
    if g.degree() < 2:
        raise RingError("ideal generators must have degree >= 2")
