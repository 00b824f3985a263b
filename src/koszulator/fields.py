"""Exact coefficient fields: prime fields F_p and the rationals.

Scalars are plain Python values, kept in canonical form so that equality
is structural: ints in [0, p) for a prime field; for the rationals an int
when integral and a reduced `fractions.Fraction` only when not, a form that
Python's mixed int/Fraction arithmetic, equality and hashing agree with.
A Field object bundles the arithmetic.
The `fractions` module, which loads `decimal` and `numbers` too, is imported
only by `fraction`, on the first non-integral rational: a `/` coefficient in
a ring file or the inverse of a non-unit over ℚ.  A run whose scalars stay
integral, every run over 𝔽_p among them, never imports it.
"""

from __future__ import annotations

DEFAULT_PRIME = 32003

# ψ₁₃, the least strong pseudoprime to all the bases of `_is_prime`
# (1287836182261 × 2575672364521): the test proves primality only below it
PRIMALITY_PROVEN_BELOW = 3317044064679887385961981


class FieldError(ValueError):
    pass


def fraction(numerator: int, denominator: int = 1):
    """numerator/denominator as a reduced `fractions.Fraction`.  The first
    call imports the module and rebinds this name to the class itself, so
    that later calls construct directly; other modules call it as
    `fields.fraction` to see the rebinding."""
    global fraction
    from fractions import Fraction
    fraction = Fraction
    return Fraction(numerator, denominator)


def _is_prime(n: int) -> bool:
    """Miller–Rabin with the prime bases up to 41, which is deterministic
    for every n below `PRIMALITY_PROVEN_BELOW` (Sorenson and Webster 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:  # n is composite if a^d ≠ 1 and no a^(d·2^r), r < s, is -1
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


class PrimeField:
    """F_p with elements stored as least non-negative residues."""

    is_prime = True

    def __init__(self, p: int = DEFAULT_PRIME):
        # residues are Python ints, so arithmetic needs no bound on p; only
        # the primality test does
        if p >= PRIMALITY_PROVEN_BELOW:
            raise FieldError(f"{p} too large: primality is proven only below "
                             f"{PRIMALITY_PROVEN_BELOW}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def of(self, value) -> int:
        """Canonical element from an int, a Fraction or a field element,
        read through its numerator and denominator."""
        if type(value) is int:
            return value % self.p
        den = value.denominator % self.p
        if den == 0:
            raise FieldError(f"denominator divisible by {self.p}")
        return value.numerator % self.p * pow(den, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def one(self):
        return 1

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        # symmetric representative keeps printed matrices readable (-1 not p-1)
        a %= self.p
        return str(a - self.p) if a > self.p // 2 else str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Q with elements stored as ints when integral, else as reduced
    Fractions: integral entries, the common case, never build a Fraction."""

    is_prime = False
    p = 0

    def of(self, value):
        """Canonical element from an int or a Fraction, which is reduced
        already: an integral Fraction becomes its numerator."""
        if type(value) is not int and value.denominator == 1:
            return value.numerator
        return value

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return int(a)
        if type(a) is int:
            return fraction(1, a)  # |a| > 1, so not integral
        return self.of(1 / a)

    def one(self):
        return 1

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def field_from_spec(spec: str):
    """Parse a field spec string: 'rational' or 'prime <p>' (or 'prime')."""
    parts = spec.split()
    if parts == ["rational"]:
        return RationalField()
    if parts and parts[0] == "prime":
        if len(parts) == 1:
            return PrimeField()
        if len(parts) == 2 and parts[1].isdigit():
            return PrimeField(int(parts[1]))
    raise FieldError(f"bad field spec: {spec!r}")
