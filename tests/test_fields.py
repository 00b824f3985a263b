from fractions import Fraction

import pytest

from koszulator.fields import (
    PRIMALITY_PROVEN_BELOW,
    FieldError,
    PrimeField,
    RationalField,
    _is_prime,
    field_from_spec,
)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.of(5 + 4) == 2
    assert f.of(3 * 5) == 1
    assert f.neg(2) == 5
    assert f.of(1 - 3) == 5
    # a * a^{-1} = 1 for every unit
    for a in range(1, 7):
        assert f.of(a * f.inv(a)) == 1


def test_prime_field_of_handles_rationals():
    f = PrimeField(7)
    # 1/2 = 4 mod 7
    assert f.of(Fraction(1, 2)) == 4
    assert f.of(-1) == 6


def test_prime_field_symmetric_printing():
    f = PrimeField(7)
    assert f.to_str(f.of(-2)) == "-2"
    assert f.to_str(3) == "3"


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert [n for n in range(10**5) if _is_prime(n)] == \
        [n for n in range(10**5) if trial(n)]
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    assert _is_prime(2**31 - 1) and _is_prime(3037000493)


def test_prime_field_bounds_p_where_primality_is_proven():
    # residues are Python ints, so primes past the int64 range are accepted
    assert PrimeField(4294967311).p == 4294967311
    # the largest prime below psi_13 is accepted; psi_13, which the
    # Miller-Rabin test takes for a prime though it is composite, and the
    # next number it calls prime are refused
    assert PrimeField(PRIMALITY_PROVEN_BELOW - 168).p == PRIMALITY_PROVEN_BELOW - 168
    assert PRIMALITY_PROVEN_BELOW == 1287836182261 * 2575672364521
    assert _is_prime(PRIMALITY_PROVEN_BELOW)
    for p in (PRIMALITY_PROVEN_BELOW, PRIMALITY_PROVEN_BELOW + 142):
        with pytest.raises(FieldError, match="primality is proven only below"):
            PrimeField(p)


def test_rational_field():
    f = RationalField()
    a = f.of(Fraction(2, 3))
    assert f.of(a * f.inv(a)) == 1
    assert f.of(f.of(1) + f.of(-1)) == 0
    assert f.is_zero(0)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_from_spec():
    assert field_from_spec("rational") == RationalField()
    assert field_from_spec("prime 13") == PrimeField(13)
    with pytest.raises(FieldError):
        field_from_spec("prime 4")
    with pytest.raises(FieldError):
        field_from_spec("galois 9")


def test_rational_field_keeps_integral_scalars_as_ints():
    # integral rationals are ints, and only the others are Fractions
    f = RationalField()
    two = f.of(Fraction(6, 3))
    assert two == 2 and type(two) is int
    assert type(f.of(Fraction(1, 2))) is Fraction
    assert f.of(7) == 7 and type(f.of(7)) is int
    assert type(f.one()) is int
    assert f.inv(-1) == -1 and type(f.inv(-1)) is int
    assert type(f.inv(Fraction(-1))) is int
    assert f.inv(2) == Fraction(1, 2)
    assert type(f.inv(Fraction(1, 3))) is int


def test_prime_field_of_agrees_on_ints_and_integral_fractions():
    f = PrimeField(7)
    assert f.of(3) == f.of(Fraction(3)) == f.of(Fraction(6, 2)) == 3
    assert type(f.of(Fraction(6, 2))) is int
