"""Division, Buchberger, reduced-basis uniqueness, membership witnesses."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from idealkit import groebner
from idealkit.corpus import CORPUS, TORIC_EXPONENTS
from idealkit.fields import GF, MR_PROVEN_BOUND, QQ, is_prime
from idealkit.groebner import (
    _packing,
    buchberger,
    is_groebner,
    normal_form,
    s_polynomial,
)
from idealkit.idealops import Ideal, kernel_of_map
from idealkit.orders import Block, DegRevLex, Lex
from idealkit.parse import parse_poly, parse_session
from idealkit.poly import Polynomial, Ring

try:
    import sympy
except ImportError:  # the sympy comparison is skipped, the rest still runs
    sympy = None

R2 = Ring(QQ, ("x", "y"))
R2L = Ring(QQ, ("x", "y"), Lex(2))


def test_normal_form_multiple_of_generator():
    x, y = R2.gens()
    assert normal_form(x**2 * y, [x**2, y**2]).is_zero()


def test_normal_form_nonmember():
    x, y = R2.gens()
    gb = buchberger([x**2, y**2])
    assert normal_form(x * y, gb) == x * y


def test_normal_form_single_step_lex():
    x, y = R2L.gens()
    assert normal_form(x**3, [x**2 - y]) == x * y


def test_normal_form_validations():
    x, y = R2.gens()
    assert normal_form(x, []) == x  # reduction modulo the zero ideal
    with pytest.raises(ValueError):
        normal_form(x, [R2.zero])
    other = Ring(QQ, ("a", "b"))
    with pytest.raises(ValueError):
        normal_form(x, [other.var(0)])


def test_buchberger_lex_example():
    x, y = R2L.gens()
    gb = buchberger([x**2 + y, y])
    assert gb == [y, x**2]


def test_buchberger_elimination_classic():
    ring = Ring(QQ, ("t", "x", "y"), Lex(3))
    t, x, y = ring.gens()
    gb = buchberger([x - t**2, y - t**3])
    t_free = [g for g in gb if g.degree_in((0,)) == 0]
    assert any(g == x**3 - y**2 or g == y**2 - x**3 for g in t_free)


def test_buchberger_monomial_ideal_minimal_set():
    x, y = R2.gens()
    gb = buchberger([x**2 * y, x**2, y**3, x**4, x**2 * y**5])
    assert gb == sorted([x**2, y**3], key=lambda p: p.lead_key())


def test_buchberger_drops_zero_generators():
    x, y = R2.gens()
    assert buchberger([R2.zero, x, R2.zero]) == [x]
    assert buchberger([R2.zero]) == []


def test_reduced_basis_properties():
    x, y = R2.gens()
    gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x]
    gb = buchberger(gens)
    for g in gb:
        assert g.lead_coeff() == QQ.one
    # no leading monomial divides another
    leads = [g.lead_monomial() for g in gb]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not all(p <= q for p, q in zip(a, b))
    # tails are irreducible
    for i, g in enumerate(gb):
        others = gb[:i] + gb[i + 1:]
        tail = g - g.ring.monomial(g.lead_monomial())
        if others and not tail.is_zero():
            assert normal_form(tail, others) == tail
    # every input generator reduces to zero
    for g in gens:
        assert normal_form(g, gb).is_zero()
    # every S-polynomial reduces to zero
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()


def test_uniqueness_under_shuffle_and_rescale():
    x, y = R2.gens()
    gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x, y**3 - x]
    reference = buchberger(gens)
    rng = random.Random(42)
    for _ in range(25):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [Fraction(rng.randrange(1, 7)) * g for g in shuffled]
        assert buchberger(scaled) == reference


def test_confluence_under_reducer_shuffle():
    x, y = R2.gens()
    gb = buchberger([x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x])
    rng = random.Random(9)
    f = (x + y) ** 4 - 3 * (x * y) ** 2 + x
    reference = normal_form(f, gb)
    for _ in range(25):
        shuffled = gb[:]
        rng.shuffle(shuffled)
        assert normal_form(f, shuffled) == reference


def test_membership_witness_reconstruction():
    x, y = R2.gens()
    gens = [x**2 + y, x * y - 1]
    gb = buchberger(gens)
    f = (x**2 + y) * (x - 3) + (x * y - 1) * y**2
    remainder, quotients = normal_form(f, gb, with_quotients=True)
    assert remainder.is_zero()
    acc = R2.zero
    for q, g in zip(quotients, gb):
        acc = acc + q * g
    assert acc == f


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_normal_form_with_repeated_and_scaled_divisors(field):
    # A divisor equal to an earlier one up to a scalar never divides first,
    # so it moves no remainder; with quotients every input keeps its own,
    # and the repeated ones get zero.
    ring = Ring(field, ("x", "y"))
    x, y = ring.gens()
    g, h = x**2 * y - 3 * y, x * y**2 + 2 * x
    p = x**4 * y**3 + 5 * x**3 * y - x * y**2 + y
    for gens, first in (([g, 2 * g, h], [g, h]), ([g, g, h], [g, h]),
                        ([3 * h, g, h, 2 * g], [h, g])):
        distinct = normal_form(p, first)
        assert normal_form(p, gens) == distinct
        r, qs = normal_form(p, gens, with_quotients=True)
        assert r == distinct and len(qs) == len(gens)
        assert sum((q * gi for q, gi in zip(qs, gens)), r) == p
        seen = []
        for q, gi in zip(qs, gens):
            if gi.monic() in seen:
                assert q.is_zero()
            seen.append(gi.monic())


def test_groebner_over_prime_field():
    f5 = Ring(GF(5), ("x", "y"))
    x, y = f5.gens()
    gb = buchberger([2 * x**2 + y, 3 * y])
    assert gb == [y, x**2]
    # S-pairs close over GF(5) too
    gens = [x**3 + 2 * x * y, x * y + 4]
    gb2 = buchberger(gens)
    for g in gens:
        assert normal_form(g, gb2).is_zero()


def test_order_parameter():
    x, y = R2.gens()
    lex = Ring(R2.field, R2.names, Lex(2))
    gb_lex = buchberger([lex.convert(x - y**2)])
    assert gb_lex == [lex.convert(x - y**2)]
    gb_drl = buchberger([x - y**2])
    assert gb_drl[0].lead_monomial() == (0, 2)


def test_block_order_gb():
    ring = Ring(QQ, ("u", "x", "y"), Block((DegRevLex(1), DegRevLex(2))))
    u, x, y = ring.gens()
    gb = buchberger([u * x - 1, u * y - 1])
    free = [g for g in gb if g.degree_in((0,)) == 0]
    assert free == [x - y]


# -- packed monomials: widening past the 8-bit fields -----------------------

def _scaled(p, ring, k):
    """p with every exponent multiplied by k, in ring."""
    return ring.poly({tuple(k * e for e in exps): c
                      for exps, c in p.terms.items()})


SCALING_ORDERS = [
    Lex(3),
    DegRevLex(3),
    Block((DegRevLex(1), Lex(2))),
    Block((Block((Lex(1), DegRevLex(1))), DegRevLex(1))),
]


@pytest.mark.parametrize("order", SCALING_ORDERS, ids=str)
@pytest.mark.parametrize("k, width", [(50, 16), (65537, 32)])
def test_buchberger_large_exponents_match_scaled_basis(order, k, width):
    # e -> k*e preserves every order here and divisibility, so the basis of
    # the scaled ideal is the scaled basis; k = 50 needs 16-bit fields and
    # k = 2^16 + 1 needs 32-bit ones.
    small = Ring(QQ, ("x", "y", "z"), order)
    x, y, z = small.gens()
    gens = [x**2 * y - z**3 + 2 * x, x * y * z - 3 * y**2, z**2 * x - y + 1]
    big = Ring(QQ, ("x", "y", "z"), order)
    expected = [_scaled(g, big, k) for g in buchberger(gens)]
    assert buchberger([_scaled(g, big, k) for g in gens]) == expected
    assert max(big._packings) == width


def test_exponents_first_pass_127_during_buchberger():
    ring = Ring(GF(32003), ("x", "y"), Lex(2))
    x, y = ring.gens()
    # x = y^64 turns x^2 - y into y^128 - y, the first exponent above 127.
    gb = buchberger([x - y**64, x**2 - y])
    assert gb == [y**128 - y, x - y**64]
    assert sorted(ring._packings) == [8, 16]


@pytest.mark.parametrize("order", [Lex(2), DegRevLex(2)], ids=str)
def test_s_polynomial_first_passes_127(order):
    # Inputs stay at 100; the one S-polynomial has the term y^150.
    small = Ring(QQ, ("x", "y"), order)
    x, y = small.gens()
    gens = [x**2 - y**2, x * y - 1]
    big = Ring(QQ, ("x", "y"), order)
    expected = [_scaled(g, big, 50) for g in buchberger(gens)]
    assert buchberger([_scaled(g, big, 50) for g in gens]) == expected
    assert sorted(big._packings) == [8, 16]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_s_polynomial_term_past_127_reducible_by_no_lead(field):
    # S(w - y^100, w*y^30 - 2x) = 2x - y^130, and no lead divides x or y^130,
    # so y^130 goes into the basis as computed and is never multiplied again.
    ring = Ring(field, ("w", "x", "y"), Lex(3))
    w, x, y = ring.gens()
    gb = buchberger([w - y**100, w * y**30 - 2 * x])
    assert gb == [(2 * x - y**130).monic(), w - y**100]
    assert all(g.lead_coeff() == field.one for g in gb)
    assert sorted(ring._packings) == [8, 16]


def test_normal_form_quotients_across_widening():
    ring = Ring(QQ, ("x", "y"), Lex(2))
    x, y = ring.gens()
    gens = [x**2 - 3 * y**127, x * y - 1]
    p = x**4 + 5 * x**3 * y**2 - y
    # Reducing x^4 by x^2 - 3y^127 twice reaches y^254.
    r, qs = normal_form(p, gens, with_quotients=True)
    assert sorted(ring._packings) == [8, 16]
    assert r.coeff((0, 254)) == 9
    acc = r
    for q, g in zip(qs, gens):
        acc = acc + q * g
    assert acc == p
    for g in gens:
        for exps in r.terms:
            assert not all(a <= b for a, b in zip(g.lead_monomial(), exps))


@pytest.mark.parametrize("with_y", [False, True])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_overflowed_terms_that_cancel_still_widen(field, with_y):
    # Both divisions reach y^130, past 127, and the two y^130 cancel. The
    # overflow is seen when the term is popped, before its zero test, so
    # the call restarts at 16 bits even though nothing of y^130 is left.
    ring = Ring(field, ("x", "z", "y"), Lex(3))
    x, z, y = ring.gens()
    gens = [x - y**100, z - y**100]
    p = x * y**30 - z * y**30
    if with_y:
        r, qs = normal_form(p + y, gens, with_quotients=True)
        assert r == y and qs == [y**30, -(y**30)]
    else:
        assert normal_form(p, gens).is_zero()
    assert sorted(ring._packings) == [8, 16]


def test_input_exponent_at_least_128():
    ring = Ring(QQ, ("x", "y"))
    x, y = ring.gens()
    gb = buchberger([x**130 - y, y**2])
    assert gb == [y**2, x**130 - y]
    assert sorted(ring._packings) == [8, 16]
    # x^260 = (x^130)^2 -> y^2 -> 0
    assert normal_form(x**260 + x * y, gb) == x * y


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_zero_variable_ring(field):
    ring = Ring(field, ())
    three, two = ring.const(3), ring.const(2)
    assert buchberger([three, two]) == [ring.one]
    r, (q,) = normal_form(ring.const(5), [two], with_quotients=True)
    assert r.is_zero()
    assert q * two == ring.const(5)
    assert Ideal(ring, [three]).contains(ring.const(4))


# -- division against a reference on exponent tuples ----------------------

def _reference_ops(field):
    """(mul, sub) as the field objects once defined them: reduced per call."""
    if field.char:
        p = field.char
        return (lambda a, b: a * b % p), (lambda a, b: (a - b) % p)
    return (lambda a, b: a * b), (lambda a, b: a - b)


def _reference_divide(p, gens):
    """Division on exponent tuples, reducing after every operation: the oracle.

    The largest remaining term goes to the lowest-index generator whose
    lead divides it. Returns (remainder, quotients) as term dicts.
    """
    field = p.ring.field
    mul, sub = _reference_ops(field)
    key = p.ring.order.key
    work, rem, quotients = dict(p.terms), {}, [{} for _ in gens]
    leads = [max(g.terms, key=key) for g in gens]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        i = next((i for i, lm in enumerate(leads)
                  if all(a <= b for a, b in zip(lm, m))), None)
        if i is None:
            rem[m] = c
            continue
        t = tuple(a - b for a, b in zip(m, leads[i]))
        q = quotients[i][t] = mul(c, field.inv(gens[i].terms[leads[i]]))
        for e, gc in gens[i].terms.items():
            if e != leads[i]:
                e = tuple(a + b for a, b in zip(e, t))
                v = sub(work.pop(e, field.zero), mul(q, gc))
                if v:
                    work[e] = v
    return rem, quotients


def _random_rational_poly(rng, ring, nterms, top):
    return ring.poly({
        tuple(rng.randint(0, top) for _ in range(ring.nvars)):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                     rng.randint(1, 12))
        for _ in range(nterms)})


def _check_against_reference(p, gens):
    r, qs = normal_form(p, gens, with_quotients=True)
    ref_r, ref_qs = _reference_divide(p, gens)
    assert r.terms == ref_r
    assert [q.terms for q in qs] == ref_qs
    assert sum((q * g for q, g in zip(qs, gens)), r) == p


@pytest.mark.parametrize("order", [Lex(3), DegRevLex(3)], ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_division_over_q_matches_fraction_reference(order, seed):
    # Non-monic divisors with fractional coefficients; every other seed
    # makes each lead coefficient negative.
    rng = random.Random(seed)
    ring = Ring(QQ, ("x", "y", "z"), order)
    gens = [_random_rational_poly(rng, ring, rng.randint(2, 4), 2)
            for _ in range(rng.randint(1, 3))]
    if seed % 2:
        gens = [g if g.lead_coeff() < 0 else -g for g in gens]
    assert any(g.lead_coeff() != 1 for g in gens)
    p = _random_rational_poly(rng, ring, rng.randint(3, 8), 5)
    _check_against_reference(p, gens)


def test_division_over_q_matches_fraction_reference_across_widening():
    ring = Ring(QQ, ("x", "y"), Lex(2))
    x, y = ring.gens()
    gens = [Fraction(-2, 3) * x**2 + Fraction(5, 7) * y**127,
            3 * x * y - Fraction(1, 2)]
    p = Fraction(1, 5) * x**4 - 4 * x**3 * y**2 + Fraction(7, 3) * y
    _check_against_reference(p, gens)
    assert sorted(ring._packings) == [8, 16]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=str)
@pytest.mark.parametrize("case", ["g, 2g, h", "g, g, h", "h, g, 3h"])
def test_division_quotients_land_on_the_lowest_index_copy(field, case):
    # g has integer content 2 and h a fractional coefficient. A divisor and
    # a later multiple of it share a lead, so every term goes to the first:
    # the later copy takes none and its quotient is zero.
    ring = Ring(field, ("x", "y", "z"), Lex(3))
    x, y, z = ring.gens()
    g = 6 * x * y + 4 * y**2 - 2 * z
    h = Fraction(3, 2) * y**2 - z
    gens, later = {
        "g, 2g, h": ([g, 2 * g, h], 1),
        "g, g, h": ([g, g, h], 1),
        "h, g, 3h": ([h, g, 3 * h], 2),
    }[case]
    p = x**2 * y**2 + 5 * x * y**3 + y**4 - x * z + 7 * y**2 * z + z**2
    _check_against_reference(p, gens)
    _, qs = normal_form(p, gens, with_quotients=True)
    assert not qs[0].is_zero()
    assert qs[later].is_zero()


# The largest prime that `is_prime` accepts below `MR_PROVEN_BOUND`: there
# p * p is largest, so the kernel's unreduced ints grow most.
LARGEST_PROVEN_PRIME = 3317044064679887385961813

GF_PRIMES = [2, 32003, 2**61 - 1, LARGEST_PROVEN_PRIME]


def test_largest_proven_prime_is_the_largest():
    assert LARGEST_PROVEN_PRIME < MR_PROVEN_BOUND
    assert is_prime(LARGEST_PROVEN_PRIME)
    assert not any(is_prime(n)
                   for n in range(LARGEST_PROVEN_PRIME + 1, MR_PROVEN_BOUND))


def _assert_reduced_coefficients(field, polys):
    for f in polys:
        for c in f.terms.values():
            assert type(c) is int and 0 < c < field.p


@pytest.mark.parametrize("order", [Lex(3), DegRevLex(3)], ids=str)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("prime", GF_PRIMES)
def test_division_over_gf_p_matches_reference(prime, order, seed):
    # Coefficients are drawn far beyond p, so divisors are not monic.
    rng = random.Random(seed)
    field = GF(prime)
    ring = Ring(field, ("x", "y", "z"), order)

    def poly(nterms, top):
        return ring.poly({
            tuple(rng.randint(0, top) for _ in range(3)):
                field.coerce(rng.randrange(-10**30, 10**30))
            for _ in range(nterms)})

    gens = [g for g in (poly(rng.randint(2, 4), 2)
                        for _ in range(rng.randint(1, 3))) if not g.is_zero()]
    p = poly(rng.randint(3, 8), 5)
    _check_against_reference(p, gens)
    r, qs = normal_form(p, gens, with_quotients=True)
    _assert_reduced_coefficients(field, [r, *qs])
    basis = buchberger(gens)
    _assert_reduced_coefficients(field, basis)
    r, qs = normal_form(p, basis, with_quotients=True)
    _assert_reduced_coefficients(field, [r, *qs])


class _LoggedTerms(dict):
    """A term dict that logs every coefficient the kernel stores in it."""

    def __init__(self, terms, log):
        super().__init__(terms)
        self.log = log

    def __setitem__(self, m, c):
        self.log.append((m, c))
        super().__setitem__(m, c)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_division_skips_terms_that_cancel_mid_loop(monkeypatch, field):
    # Lex x > y > z. Popping x*y*z (by g0) cancels y^2*z, which is skipped
    # when popped although g1's lead y^2 divides it. Popping x*z (by g0)
    # cancels y*z: to 0 over Q, to 12 - 3*4 = -7 over GF(7), as the kernel
    # does not reduce until a pop. Popping y^2 (by g1) then creates y*z
    # again, and it ends in the remainder.
    ring = Ring(field, ("x", "y", "z"), Lex(3))
    x, y, z = ring.gens()
    gens = [x + 4 * y, 3 * y**2 + 2 * y * z]
    p = x * y * z + 3 * x * z + 4 * y**2 * z + y**2 + 12 * y * z
    log, divide = [], groebner._divide

    def logged_divide(pk, char, terms, *rest):
        stored = []
        out = divide(pk, char, _LoggedTerms(terms, stored), *rest)
        # Skip tagged quotient terms (m < 0): their low bits unpack as the
        # monomial terms' do.
        log.extend((pk.unpack(m), c) for m, c in stored if m >= 0)
        return out

    monkeypatch.setattr(groebner, "_divide", logged_divide)
    r, qs = normal_form(p, gens, with_quotients=True)

    def stored(m):
        return [c for e, c in log if e == m]

    def reduced(cs):
        return [c % field.char for c in cs] if field.char else cs

    assert reduced(stored((0, 2, 1))) == [0]
    yz = stored((0, 1, 1))
    assert yz[0] == (-7 if field.char else 0)
    assert reduced(yz)[-1] != 0
    assert list(r.terms) == [(0, 1, 1)]
    assert qs[0].terms.keys() == {(0, 1, 1), (0, 0, 1)}
    assert qs[1].terms.keys() == {(0, 0, 0)}
    _check_against_reference(p, gens)


# -- the divisor memo --------------------------------------------------------

def _sharing_memo(monkeypatch):
    """Make every `_divide` call read and extend one memo, and return it."""
    shared = {}
    divide = groebner._divide

    def divide_with_shared_memo(*args):
        return divide(*args[:-1], shared)

    monkeypatch.setattr(groebner, "_divide", divide_with_shared_memo)
    return shared


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_divisor_memo_resumes_after_a_lead_is_appended(monkeypatch, field):
    # Lex x > y > z. Dividing by g0 alone leaves y^2*z in the remainder, so
    # the memo says that no lead in leads[:1] divides it. The next division
    # appends g1, whose lead y^2 divides y^2*z: the scan resumes at index 1.
    ring = Ring(field, ("x", "y", "z"), Lex(3))
    x, y, z = ring.gens()
    gens = [x + 2 * y, 3 * y**2 - z, y * z - 1]
    p = x * y * z + x**2 + z**3
    memo = _sharing_memo(monkeypatch)
    y2z = _packing(ring, 8).pack((0, 2, 1))
    _check_against_reference(p, gens[:1])
    assert memo[y2z] == ~1
    _check_against_reference(p, gens[:2])
    assert memo[y2z] == 1
    _check_against_reference(p, gens)
    assert memo[y2z] == 1


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_divisor_memo_shared_across_divisions_matches_reference(
        monkeypatch, field, seed):
    # One memo serves every division while the divisors grow by appending,
    # as in one Buchberger run; each result must match the reference.
    rng = random.Random(seed)
    ring = Ring(field, ("x", "y", "z"), DegRevLex(3) if seed % 2 else Lex(3))
    gens = [_random_rational_poly(rng, ring, rng.randint(2, 4), 2)
            for _ in range(4)]
    dividends = [_random_rational_poly(rng, ring, rng.randint(3, 8), 5)
                 for _ in range(3)]
    memo = _sharing_memo(monkeypatch)
    for k in range(1, len(gens) + 1):
        for p in dividends:
            _check_against_reference(p, gens[:k])
    assert memo


# -- tagged cofactor terms ---------------------------------------------------

@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("order", [
    Lex(3), DegRevLex(3), Block((Lex(1), Block((DegRevLex(1), Lex(1)))))],
    ids=str)
def test_packed_monomials_lie_below_the_tag(order, width):
    # Every unit is positive, so the packed monomials run from 0, the
    # constant, to the monomial with every exponent at max_exp, which lies
    # below the tag. A tagged term m - tag keeps m's fields and guard bits.
    ring = Ring(QQ, ("x", "y", "z"), order)
    pk = _packing(ring, width)
    top = pk.max_exp
    assert all(unit > 0 for unit in pk.units)
    assert pk.pack((0, 0, 0)) == 0
    assert pk.pack((top, top, top)) < pk.tag
    rng = random.Random(width)
    samples = [*itertools.product((0, 1, top), repeat=3),
               *(tuple(rng.randint(0, top) for _ in range(3))
                 for _ in range(100))]
    for exps in samples:
        m = pk.pack(exps)
        assert 0 <= m <= pk.pack((top, top, top))
        assert pk.unpack(m - pk.tag) == exps
        assert (m - pk.tag) & pk.guard == 0


@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("order", [
    Lex(4), DegRevLex(4), Block((DegRevLex(1), Block((Lex(2), DegRevLex(1)))))],
    ids=str)
def test_byte_weights_pack_raw_fields(order, width):
    # The signature loop packs lcm / lead from its raw exponent fields by one
    # dot product of their big-endian bytes with the byte weights; it must
    # give pack() of the exponents that the fields hold. Unpacking, by
    # bytes at width 8 and by shifts above it, inverts pack() and reads a
    # tagged term as its monomial.
    ring = Ring(QQ, ("x", "y", "z", "t"), order)
    pk = groebner._Packing(ring, width)
    rng = random.Random(width)
    top = pk.max_exp
    samples = [*itertools.product((0, 1, top), repeat=4),
               *(tuple(rng.randint(0, top) for _ in range(4))
                 for _ in range(200))]
    for exps in samples:
        raw = sum(e << s for e, s in zip(exps, pk.shifts))
        dot = sum(b * w for b, w in zip(raw.to_bytes(pk.nbytes, "big"),
                                        pk.weights, strict=True))
        m = pk.pack(exps)
        assert dot == m
        assert pk.unpack(m) == exps
        assert pk.unpack(m - 3 * pk.tag) == exps


def _normalize_reference(terms, lead):
    """`_normalize` over Q as it was before its int path: every coefficient
    goes through the lcm of the denominators and a rebuilt dict."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = math.gcd(*ints.values())
    if ints[lead] < 0:
        g = -g
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
    return ints, den // g if not den % g else Fraction(den, g)


@pytest.mark.parametrize("seed", range(4))
def test_normalize_over_q_matches_the_reference(seed):
    rng = random.Random(seed)
    for k in range(300):
        content = rng.choice([1, 1, 2, 6, 35, 2**70 + 1])
        terms = {m: content * rng.choice([-1, 1]) * rng.randint(1, 50)
                 for m in rng.sample(range(1000), rng.randint(1, 6))}
        if k % 3 == 0:  # a fraction or two
            for m in rng.sample(sorted(terms), rng.randint(1, len(terms))):
                terms[m] = QQ.coerce(Fraction(terms[m], rng.randint(2, 30)))
        lead = max(terms)
        expected = _normalize_reference(dict(terms), lead)
        got = groebner._normalize(QQ, dict(terms), lead)
        assert got == expected
        assert list(got[0]) == list(terms)  # the order is kept
        assert [type(c) for c in (*got[0].values(), got[1])] == \
            [type(c) for c in (*expected[0].values(), expected[1])]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_divide_passes_tagged_terms_through(field):
    # Lex x > y, and [m] is the tagged term m - tag. Dividing x^2 + [1] by
    # x - y + 5*[x]: x^2 and then x*y go to the divisor, which adds
    # -5*[x^2] and -5*[x*y], and y^2 stays. The lead x divides the monomial
    # of [x^2], but no tagged term is reduced or enters the memo; they
    # follow y^2 in descending order.
    ring = Ring(field, ("x", "y"), Lex(2))
    pk = _packing(ring, 8)
    one, y, x, yy, xy, xx = map(pk.pack, [(0, 0), (0, 1), (1, 0), (0, 2),
                                          (1, 1), (2, 0)])
    tag, memo = pk.tag, {}
    rem, u = groebner._divide(pk, field.char, {xx: 1, one - tag: 1}, [x],
                              [1], [[(y, -1), (x - tag, 5)]], memo)
    c = field.coerce(-5)
    assert u == 1
    assert list(rem.items()) == [(yy, 1), (xx - tag, c), (xy - tag, c),
                                 (one - tag, 1)]
    assert sorted(memo) == [yy, xy, xx]


def _basis_from_width(width, gens):
    """The basis of gens when the run starts at `width`-bit fields."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_widening",
                   lambda ring, run: run(_packing(ring, width)))
        return buchberger(gens)


def test_divisor_memo_is_rebuilt_when_buchberger_widens(monkeypatch):
    # x = y^64 turns x^2 - y into y^128 - y: the run overflows its 8-bit
    # fields after a division has filled the memo, and starts again at 16.
    ring = Ring(GF(32003), ("x", "y"), Lex(2))
    x, y = ring.gens()
    gens = [x - y**64, x**2 - y]
    start16 = _basis_from_width(16, gens)
    memos, divide = [], groebner._divide

    def logged_divide(pk, *args, **regular):
        memo = args[-1]
        memos.append((pk, memo, len(memo)))
        return divide(pk, *args, **regular)

    monkeypatch.setattr(groebner, "_divide", logged_divide)
    assert buchberger(gens) == start16 == [y**128 - y, x - y**64]
    assert sorted(ring._packings) == [8, 16]
    # No memo outlives its width, and each width starts with an empty one.
    packing_of, first_size = {}, {}
    for pk, memo, size in memos:
        assert packing_of.setdefault(id(memo), pk) is pk
        first_size.setdefault(pk.max_exp, size)
    assert first_size == {127: 0, 32767: 0}


def _seeded_ideal(field):
    rng = random.Random(4)
    ring = Ring(field, ("x", "y", "z"), Lex(3))
    return [_random_rational_poly(rng, ring, rng.randint(2, 4), 3)
            for _ in range(3)]


def _cyclic6(field):
    text = (Path(__file__).parent / "golden" / "cyclic6.ikt").read_text()
    return list(parse_session(text, field).ideals["I"])


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
@pytest.mark.parametrize("ideal", [_cyclic6, _seeded_ideal],
                         ids=["cyclic6", "seeded"])
def test_inter_reduction_is_one_ascending_sweep(monkeypatch, field, ideal):
    # `_reduce_basis` divides each minimal element's tail, without its lead,
    # by the elements already reduced, in ascending order, and one memo
    # serves the whole sweep. The signature loop's divisions are regular.
    calls, divide = [], groebner._divide

    def logged_divide(pk, char, terms, leads, *rest, regular=None):
        if regular is None:
            calls.append((pk, list(terms), list(leads), rest[-1]))
        return divide(pk, char, terms, leads, *rest, regular=regular)

    monkeypatch.setattr(groebner, "_divide", logged_divide)
    basis = buchberger(ideal(field))
    pk = calls[-1][0]
    calls = [call for call in calls if call[0] is pk]
    leads = [pk.pack(g.lead_monomial()) for g in basis]
    assert len(basis) > 2 and len(calls) == len(basis)
    assert leads == sorted(set(leads))
    memo = calls[0][3]
    for k, (_, dividend, divisors, sweep_memo) in enumerate(calls):
        assert sweep_memo is memo
        assert divisors == leads[:k]
        assert all(m < leads[k] for m in dividend)
    assert memo


def test_normal_form_keeps_the_lowest_index_divisor(monkeypatch):
    # Every lead here divides x^3*y^2, and x divides each term of p: the
    # quotients must give each popped term to the first lead that divides
    # it, and every call starts from an empty memo.
    ring = Ring(QQ, ("x", "y"), Lex(2))
    x, y = ring.gens()
    gens = [x**2 * y - y, x * y + 1, x - 2]
    p = x**3 * y**2 + x * y + x
    sizes, divide = [], groebner._divide

    def logged_divide(*args):
        sizes.append(len(args[-1]))
        return divide(*args)

    monkeypatch.setattr(groebner, "_divide", logged_divide)
    for order in (gens, gens[::-1]):
        _check_against_reference(p, order)
        _check_against_reference(p, order)
    r, (q0, q1, q2) = normal_form(p, gens, with_quotients=True)
    assert q0 == x * y
    assert q1 == ring.const(1) + y
    assert sizes == [0] * 5


# -- the signature loop --------------------------------------------------------

# With the singular-top-reduction discard next to the rewrite criterion
# that keeps the latest element, a signature loop lost y from this basis.
PITFALL = ["-3*x^3*y^3*z^3 - x*y^2*z + y", "-2*x^3*z^2",
           "-3*x^3*y^2*z^2 - 2*x^3*y*z^2", "-3*y*z^3 + y^3 + 3*x*y"]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_signature_loop_keeps_y_in_the_pitfall_ideal(field):
    ring = Ring(field, ("x", "y", "z"))
    x, y, z = ring.gens()
    gens = [parse_poly(ring, text) for text in PITFALL]
    assert buchberger(gens) == [y, x**3 * z**2]


def _sympy_basis(gens, order_name):
    """sympy's reduced basis of gens, made monic and moved into their ring."""
    ring = gens[0].ring
    symbols = sympy.symbols(ring.names)
    p = ring.field.char
    options = {"modulus": p} if p else {"domain": "QQ"}
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.prod(v**e for v, e in zip(symbols, exps))
                 for exps, c in g.terms.items()) for g in gens]
    basis = sympy.groebner(exprs, *symbols, order=order_name, **options)
    out = [ring.poly({exps: Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                      for exps, c in sympy.Poly(e, *symbols).as_dict().items()})
           .monic() for e in basis.exprs]
    return sorted(out, key=lambda g: g.lead_key())


SEEDED_ORDERS = [("lex", Lex), ("grevlex", DegRevLex),
                 ("block", lambda n: Block((DegRevLex(1), DegRevLex(n - 1))))]


def _seeded_system(field, seed):
    """(order name, generators): the seed picks 2, 3 or 4 variables, then
    lex, degrevlex or a block order, and a square system (odd seeds: nvars
    + 1 to nvars + 3 generators)."""
    rng = random.Random(seed)
    n = 2 + seed % 3
    order_name, order = SEEDED_ORDERS[seed // 3 % 3]
    ring = Ring(field, ("x", "y", "z", "w")[:n], order(n))
    size = n + rng.randint(1, 3) if seed % 2 else n
    gens = []
    while len(gens) < size:
        g = ring.poly({
            tuple(rng.randint(0, 3 if n < 4 else 2) for _ in range(n)):
                field.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 4))})
        if g:
            gens.append(g)
    return order_name, gens


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=repr)
@pytest.mark.parametrize("seed", range(12))
def test_buchberger_is_groebner_and_matches_sympy(field, seed):
    # The basis is checked by `is_groebner`, by reducing every input to 0
    # and against sympy's basis in degrevlex, and in lex up to three
    # variables: sympy took 148 s over Q on seed 11 (lex, 4 variables, 6
    # generators), where idealkit takes under 1 s.
    order_name, gens = _seeded_system(field, seed)
    basis = buchberger(gens)
    assert is_groebner(basis)
    assert all(normal_form(g, basis).is_zero() for g in gens)
    n = gens[0].ring.nvars
    if sympy is not None and (order_name == "grevlex"
                              or order_name == "lex" and n < 4):
        assert basis == _sympy_basis(gens, order_name)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_signature_monomial_first_passes_127(monkeypatch, field):
    # Reducing x^100 - x*y by x^100 - y^2 leaves x*y - y^2 with signature
    # x^100 e_1. Its J-pair with x^100 - y^2 (lcm x^100*y) has signature
    # x^199 e_1, though no term of the run passes x^100*y.
    ring = Ring(field, ("x", "y"))
    x, y = ring.gens()
    gens = [x**100 - y**2, x**100 - x * y]
    start16 = _basis_from_width(16, gens)
    widest, divide = [], groebner._divide

    def logged_divide(pk, char, terms, *rest, **regular):
        exps = [pk.unpack(m) for m in terms]
        rem, u = divide(pk, char, terms, *rest, **regular)
        exps += [pk.unpack(m) for m in rem]
        widest.append((pk.max_exp, max(map(max, exps))))
        return rem, u

    monkeypatch.setattr(groebner, "_divide", logged_divide)
    assert buchberger(gens) == start16 == [x * y - y**2, x**100 - y**2,
                                           y**101 - y**3]
    assert sorted(ring._packings) == [8, 16]
    narrow = [e for width, e in widest if width == 127]
    assert narrow and max(narrow) == 100


def _log_regular_remainders(monkeypatch):
    """The list that the remainders of later regular reductions go to:
    J-pairs and the inputs that some lead divides."""
    remainders = []
    divide = groebner._divide

    def logged_divide(*args, regular=None):
        rem, u = divide(*args, regular=regular)
        if regular is not None:
            remainders.append(rem)
        return rem, u

    monkeypatch.setattr(groebner, "_divide", logged_divide)
    return remainders


def _regular_reductions(monkeypatch, run):
    """(Regular reductions, of which to zero) that run() makes. A reduction
    to zero leaves no term >= 0: nothing, or in the colon step only the
    tagged cofactor terms."""
    remainders = _log_regular_remainders(monkeypatch)
    run()
    return (len(remainders),
            sum(all(m < 0 for m in rem) for rem in remainders))


@pytest.mark.parametrize("system, counts", [
    ("katsura7", (54, 11)),
    ("cyclic6", (218, 28)),
])
def test_zero_reductions(monkeypatch, system, counts):
    # (Reductions, of which to zero) over GF(32003). The Koszul syzygies cut
    # katsura-7's zero reductions; the rewrite criterion fires on cyclic-6
    # only.
    text = (Path(__file__).parent / "golden" / f"{system}.ikt").read_text()
    gens = list(parse_session(text, GF(32003)).ideals["I"])
    assert _regular_reductions(monkeypatch, lambda: buchberger(gens)) == counts


def _lemma4_product():
    """The generators of H*I in lemma4, whose basis decides f8^2 in H*I."""
    session = CORPUS["lemma4"].session(GF(32003))
    H, I = (Ideal(session.ring, session.ideals[n]) for n in ("H", "I"))
    return (H * I).gens


def _toric_kernel():
    """lemma4's toric kernel: x, y, z, t -> s^12, s^15, s^20, s^23."""
    s = Ring(GF(32003), ("s",)).var(0)
    return kernel_of_map([s**e for e in TORIC_EXPONENTS], ("x", "y", "z", "t"))


@pytest.mark.parametrize("run, counts", [
    (lambda: buchberger(_lemma4_product()), (135, 73)),
    (_toric_kernel, (74, 17)),
], ids=["lemma4_product", "toric_kernel"])
def test_corpus_reductions(monkeypatch, run, counts):
    # Two corpus bases as engine work pins, over GF(32003): the 56 products
    # of lemma4's H*I (35 distinct), which the bundle no longer builds since
    # its lift certifies f8^2 in H*I, and the elimination of s.
    assert _regular_reductions(monkeypatch, run) == counts


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_loop_stops_at_the_first_constant_remainder(monkeypatch, field):
    # The seed-11 system of `test_buchberger_is_groebner_and_matches_sympy`
    # (lex, 6 generators in 4 variables) is the unit ideal. Its first
    # constant remainder comes at regular reduction 136, and the loop stops
    # there with the basis [1]; it used to go on for 28 more reductions, 19
    # of them to zero.
    _, gens = _seeded_system(field, 11)
    remainders = _log_regular_remainders(monkeypatch)
    assert buchberger(gens) == [gens[0].ring.one]
    assert len(remainders) == 136
    assert [max(rem) for rem in remainders if rem][-1] == 0
    assert not any(max(rem) == 0 for rem in remainders[:-1] if rem)
