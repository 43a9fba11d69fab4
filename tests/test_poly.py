"""Sparse polynomial arithmetic: canonical form, ring laws, printing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealkit.fields import GF, QQ
from idealkit.orders import Lex
from idealkit.parse import parse_poly
from idealkit.poly import Ring

R2 = Ring(QQ, ("x", "y"))
R4 = Ring(QQ, ("x", "y", "z", "t"))


def lemma4_gens(ring):
    x, y, z, t = ring.gens()
    return [
        y * z - x * t, z**3 - x**5, z**2 * t - x**4 * y,
        z * t**2 - x**3 * y**2, t**3 - x**2 * y**3, y**4 - x**5,
        y**3 * t - x**4 * z, y**2 * t**2 - x**3 * z**2,
    ]


def test_difference_of_squares():
    x, y = R2.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_zero_absorbs():
    x, y = R2.gens()
    f = x**3 * y - 2 * y + 1
    assert (f * R2.zero).is_zero()
    assert f + (-f) == R2.zero


def test_square_combination_identity():
    x, y, z, t = R4.gens()
    f = lemma4_gens(R4)
    combo = (x**2 * y * z * t * f[0] ** 2 - x**4 * f[0] * f[4]
             - x**2 * f[1] * f[6] + t * f[4] * f[5] + x**2 * f[5] * f[6])
    assert combo == f[7] ** 2


def test_canonical_form_no_zero_terms():
    x, y = R2.gens()
    cases = [
        (x + y) - x - y,
        (x + 1) * (x - 1) - x * x + 1,
        2 * x - x - x,
        (x + y) ** 3 - (x + y) * (x + y) * (x + y),
    ]
    for p in cases:
        assert p.is_zero()
        assert not p.terms
    q = (x + y) * (x - y)
    assert all(c != 0 for c in q.terms.values())
    assert len(q.terms) == len(set(q.terms))


def test_ring_mismatch_rejected():
    x, _ = R2.gens()
    other = Ring(QQ, ("x", "y"))
    # equal rings are interchangeable; a truly different ring is not
    assert x + other.var("x") == 2 * other.var("x")
    with pytest.raises((ValueError, KeyError)):
        _ = x + Ring(QQ, ("a", "b")).var(0)


def test_lead_terms_degrevlex():
    x, y, z, t = R4.gens()
    f8 = y**2 * t**2 - x**3 * z**2
    assert f8.lead_monomial() == (0, 0, 2, 2) or f8.lead_monomial() == (3, 0, 2, 0)
    # degree-5 term x^3 z^2 beats the degree-4 term
    assert f8.lead_monomial() == (3, 0, 2, 0)
    assert f8.lead_coeff() == -1
    assert f8.degree() == 5


def test_degree_in():
    x, y, z, t = R4.gens()
    p = y**3 * t - x**4 * z
    assert p.degree_in((3,)) == 1
    assert p.degree_in((0,)) == 4
    assert p.degree_in((1, 3)) == 4


def test_constant_term_and_coeff():
    x, y = R2.gens()
    p = 3 * x * y - 2 * x + Fraction(1, 2)
    assert p.constant_term() == Fraction(1, 2)
    assert p.coeff((1, 1)) == 3
    assert p.coeff((9, 9)) == 0


def test_scalar_equality():
    f7 = Ring(GF(7), ("x",))
    assert f7.one == 1 and f7.one == 8 and f7.one == Fraction(8, 15)
    assert f7.zero == 0 and f7.zero == 7
    # 1/7 is no element of GF(7): unequal to every polynomial, not an error.
    assert not f7.one == Fraction(1, 7)
    assert f7.one != Fraction(1, 7)
    assert not f7.zero == Fraction(3, 14)
    assert R2.one == Fraction(2, 2) and R2.one != Fraction(1, 7)


def test_divexact():
    x, y = R2.gens()
    p = (x + y) * (x - 2 * y)
    assert p.divexact(x + y) == x - 2 * y
    with pytest.raises(ArithmeticError):
        (x * x + y).divexact(x + y)
    with pytest.raises(ArithmeticError):
        p.divexact(R2.zero)


def test_divexact_single_term_divisor():
    x, y = R2.gens()
    p = 6 * x**3 * y - 4 * x * y**2
    assert p.divexact(2 * x * y) == 3 * x**2 - 2 * y
    assert p.divexact(R2.const(2)) == 3 * x**3 * y - 2 * x * y**2
    assert p.divexact(R2.one) == p
    assert R2.zero.divexact(x) == R2.zero
    f5 = Ring(GF(5), ("x", "y"))
    u, v = f5.gens()
    assert (3 * u**2 * v).divexact(2 * u) == 4 * u * v


def test_divexact_single_term_errors():
    x, y = R2.gens()
    with pytest.raises(ZeroDivisionError):
        x.divexact(R2.zero)
    with pytest.raises(ArithmeticError):
        (x**2 + y).divexact(x)  # y is not a multiple of x
    with pytest.raises(ArithmeticError):
        (x * y).divexact(x**2)
    other = Ring(QQ, ("a", "b"))
    with pytest.raises(ValueError):
        x.divexact(other.var(0))
    with pytest.raises(ValueError):
        x.divexact(other.const(2))
    with pytest.raises(ValueError):
        (x * y).divexact(other.var(0) + 1)


def test_pow():
    x, y = R2.gens()
    assert (x + y) ** 0 == R2.one
    assert (x + y) ** 1 == x + y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    with pytest.raises(ValueError):
        (x + y) ** -1


def test_monic():
    x, y = R2.gens()
    p = -2 * x * x + 4 * y
    assert p.monic() == x * x - 2 * y


def test_substitute():
    x, y = R2.gens()
    rt = Ring(QQ, ("t",))
    t = rt.var(0)
    p = y**2 - x**3
    assert p.substitute([t**2, t**3], rt).is_zero()
    assert (x + y).substitute([t, rt.one], rt) == t + 1


def test_order_change_convert():
    lex_ring = Ring(R2.field, R2.names, Lex(2))
    x, y = R2.gens()
    p = x + y**3
    q = lex_ring.convert(p)
    assert q.lead_monomial() == (1, 0)  # lex: x beats y^3
    assert p.lead_monomial() == (0, 3)  # degrevlex: degree wins
    assert R2.convert(q) == p


def test_field_change_convert():
    x, y = R2.gens()
    p = 7 * x - Fraction(1, 2) * y
    f5 = Ring(GF(5), ("x", "y"))
    q = f5.convert(p)
    assert q.coeff((1, 0)) == 2
    assert q.coeff((0, 1)) == 2  # -1/2 = -3 = 2 mod 5


def test_convert_names_a_missing_variable():
    with pytest.raises(ValueError, match="^'z' is not a ring variable$"):
        R2.convert(Ring(QQ, ("x", "y", "z")).var(2))


def test_var_rejects_an_unknown_name_or_position():
    assert R2.var("y") == R2.var(1)
    with pytest.raises(ValueError, match="^'q' is not a ring variable$"):
        R2.var("q")
    for i in (2, 5, -1):
        with pytest.raises(ValueError, match=f"no variable at position {i}"):
            R2.var(i)


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0), (1.5, 0)],
                         ids=["short", "long", "negative", "fractional"])
@pytest.mark.parametrize("build", [R2.monomial, lambda e: R2.poly({e: 1})],
                         ids=["monomial", "poly"])
def test_malformed_exponents_are_rejected(build, exps):
    with pytest.raises(ValueError, match="exponent"):
        build(exps)


def test_str_round_trips_through_parser():
    x, y = R2.gens()
    cases = [
        R2.zero, R2.one, -R2.one, x, -x,
        x**2 * y - 3 * y + 1,
        -x + Fraction(1, 2) * y,
        (x + y) ** 3,
    ]
    for p in cases:
        assert parse_poly(R2, str(p)) == p


def test_hash_consistency():
    x, y = R2.gens()
    a = (x + y) * (x - y)
    b = x * x - y * y
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# Built through Ring.poly, as parsed and computed polynomials are, so the
# coefficients are ints.
poly_strategy = st.builds(
    R2.poly,
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(-9, 9),
        max_size=6,
    ),
)


@settings(max_examples=120, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert _check_convention(a * (b + c)) == a * b + a * c
    assert a + R2.zero == a
    assert a * R2.one == a


def _check_convention(p):
    """No stored zero; over Q an int or a Fraction with denominator above
    1, over GF(p) an int in range(p)."""
    char = p.ring.field.char
    for c in p.terms.values():
        if char:
            assert type(c) is int and 0 < c < char
        else:
            assert (type(c) is int or type(c) is Fraction
                    and c.denominator > 1) and c != 0
    return p


@pytest.mark.parametrize(
    "field", [QQ, GF(2), GF(7), GF(32003), GF(2**61 - 1)], ids=repr)
def test_coefficient_convention(field):
    # Few monomials and small coefficients, so sums and products cancel
    # terms often, and over GF(2) and GF(7) scalars are often zero.
    rng = random.Random(20261018 + field.char)
    ring = Ring(field, ("x", "y", "z"))
    dens = (1,) if field.char else (1, 2, 3)

    def rand(max_terms=5):
        return ring.poly({
            tuple(rng.randint(0, 2) for _ in range(3)):
                Fraction(rng.randint(-9, 9), rng.choice(dens))
            for _ in range(rng.randint(1, max_terms))})

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        k = field.coerce(rng.randint(-9, 9))
        shift = tuple(rng.randint(0, 2) for _ in range(3))
        for p in (a + b, a - b, a - a, -a, a * b, a * k, k * a, a * 0,
                  a ** 3, a * ring.monomial(shift, k), a.monic(),
                  a.substitute([b, c, a], ring)):
            _check_convention(p)
        assert _check_convention(a + b) - b == a
        assert _check_convention(a * (b + c)) == a * b + a * c
        if b:
            assert _check_convention((a * b).divexact(b)) == a
            m = ring.monomial(shift, k or 1)
            assert _check_convention((a * m).divexact(m)) == a
