"""Coefficient field arithmetic and primality screening."""

from fractions import Fraction

import pytest

from idealkit.fields import GF, QQ, PrimeField, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 7919}
    for n in range(-3, 120):
        assert is_prime(n) == (n in primes or (n > 1 and all(
            n % d for d in range(2, int(n**0.5) + 1))))


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_strong_pseudoprime_to_the_first_twelve_prime_bases():
    # 399165290221 * 798330580441 passes every base from 2 to 37
    assert not is_prime(318665857834031151167461)


def test_moduli_beyond_the_proven_bound_rejected():
    # 1287836182261 * 2575672364521 passes every base from 2 to 41
    n = 3317044064679887385961981
    with pytest.raises(ValueError):
        is_prime(n)
    with pytest.raises(ValueError):
        GF(n)
    with pytest.raises(ValueError):
        PrimeField(n)
    assert GF(3317044064679887385961813).p == 3317044064679887385961813


def test_rationals_exact():
    assert QQ.inv(Fraction(-4, 7)) == Fraction(-7, 4)
    assert QQ.char == 0


def test_rational_coerce():
    assert QQ.coerce(5) == Fraction(5)
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)


def test_rationals_store_integers_as_ints():
    # An integral value is a plain int, never a bool or a Fraction; only a
    # value with denominator above 1 is a Fraction.
    assert type(QQ.coerce(True)) is int and QQ.coerce(True) == 1
    two = QQ.coerce(Fraction(4, 2))
    assert type(two) is int and two == 2
    assert type(QQ.coerce(Fraction(-3, 6))) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    half = QQ.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.inv(1)) is int and QQ.inv(1) == 1
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(-1))) is int and QQ.inv(Fraction(-1)) == -1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


def test_prime_field_arithmetic():
    f7 = GF(7)
    assert f7.char == 7
    for a in range(1, 7):
        assert f7.inv(a) in range(7)
        assert a * f7.inv(a) % 7 == 1


def test_prime_field_coerces_fractions():
    f5 = GF(5)
    assert f5.coerce(7) == 2
    assert f5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))


def test_gf_rejects_composites():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gf_cached_and_equal():
    assert GF(11) is GF(11)
    assert GF(11) == PrimeField(11)
    assert GF(11) != GF(13)
    assert GF(3) != QQ


def test_field_division():
    f101 = GF(101)
    for a in (1, 2, 50, 100):
        for b in (1, 3, 99):
            assert a * f101.inv(b) * b % 101 == a
