"""Sparse multivariate polynomials and their parser.

A monomial is a tuple of exponents; a Polynomial maps monomials to nonzero
field scalars.  Sums and negation are here; every product goes through the
quotient ring (`polyring.GradedQuotientRing`).
The parser keeps integer coefficients as ints and builds a Fraction
(`fields.fraction`) only after a `/`, so a ring file without one never
imports `fractions`.
"""

from __future__ import annotations

import re
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
# The text is cut into tokens: blanks (skipped), runs of ASCII digits, names
# and single characters.  A token's kind is "num", "name", "" at the end of
# the text, or the character itself.  `_GRAMMAR` maps each state to the kinds
# that may come next and the state each leads to.  A term may end in the
# states of `_TERM_ENDS`; a token they do not take ends it.

_NAME = re.compile(r"[^\W\d]\w*")
_TOKEN = re.compile(rf"(?P<blank>\s+)|(?P<num>[0-9]+)|(?P<name>{_NAME.pattern})|.|\Z", re.S)
_GRAMMAR = {
    "start": {"+": "term", "-": "term", "num": "coeff", "name": "factor"},
    "sign": {"+": "term", "-": "term", "": "sign"},
    "term": {"num": "coeff", "name": "factor"},
    "coeff": {"/": "den", "*": "star", "name": "factor"},
    "den": {"num": "frac"},
    "frac": {"*": "star", "name": "factor"},
    "star": {"name": "factor"},
    "factor": {"^": "exp", "*": "star"},
    "exp": {"num": "power"},
    "power": {"*": "star"},
}
_TERM_ENDS = {"coeff", "frac", "factor", "power"}
_EXPECTED = {"start": "expected a term", "sign": "expected '+' or '-', got {!r}",
             "term": "expected a term", "den": "expected a number",
             "star": "expected a variable after '*'", "exp": "expected a number"}


def _is_name(text: str) -> bool:
    """Whether text is a variable name: one `_NAME` token, so that
    `parse_polynomial` reads it whole, and an identifier, so that it holds
    no numeric character other than a digit, such as ² or ½ (`\\w` admits
    them)."""
    return text.isidentifier() and _NAME.fullmatch(text) is not None


def parse_polynomial(text: str, var_names, field) -> Polynomial:
    """Parse signed sums of terms like '2*x^2*y - 1/3*z + 5'.  A term is an
    optional coefficient n or n/d, then variable powers joined by '*'; the
    first variable may follow the coefficient without one, as in '2x'."""
    if not text.strip():
        raise ParseError("empty input", len(text))
    nvars = len(var_names)
    var_index = {name: i for i, name in enumerate(var_names)}
    terms, state, coeff, exps = {}, "start", 1, [0] * nvars
    for m in _TOKEN.finditer(text):
        pos, tok, kind = m.start(), m.group(), m.lastgroup or m.group()
        if kind == "blank":
            continue
        if state in _TERM_ENDS and kind not in _GRAMMAR[state]:
            try:
                c = field.of(coeff)
            except FieldError as exc:
                raise ParseError(str(exc), pos) from exc
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
            state = "sign"
        if kind not in _GRAMMAR[state]:
            raise ParseError(_EXPECTED[state].format(tok[:1]), pos)
        if kind in ("+", "-"):
            coeff, exps = (-1 if kind == "-" else 1), [0] * nvars
        elif kind == "name":
            if tok not in var_index:
                raise ParseError(f"unknown variable {tok!r}", pos)
            j = var_index[tok]
            exps[j] += 1
        elif state == "exp":
            exps[j] += int(tok) - 1  # the name counted 1
        elif state == "den":
            if int(tok) == 0:
                raise ParseError("zero denominator", pos)
            coeff = fields.fraction(coeff, int(tok))
        elif kind == "num":
            coeff *= int(tok)
        state = _GRAMMAR[state][kind]
    return Polynomial(nvars, field, terms)


def _check_generator(g: Polynomial, var_names):
    """Refuse an ideal generator that is zero, not homogeneous, or of degree < 2."""
    if g.is_zero():
        raise RingError("zero ideal generator")
    if not g.is_homogeneous():
        raise RingError(f"ideal generator {g.to_string(var_names)!r} is not homogeneous")
    if g.degree() < 2:
        raise RingError("ideal generators must have degree >= 2")
