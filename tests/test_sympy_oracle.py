"""Differential suite: reduced Groebner bases against sympy's `groebner`.

Seeded random ideals in Q[x, y, z] and GF(32003)[x, y, z], in lex and
grevlex order, must give the same reduced basis as sympy, an independent
implementation. Exponents stay at most 2 per variable in the random cases:
with exponents up to 3, a lex-over-Q case takes minutes here (intermediate
coefficient growth, recorded in CHANGES.md), which is not a suite to run on
every change. A few fixed cases have one variable at an exponent of 128 or
more, so the basis is computed on widened packed monomials.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from idealkit.fields import GF, QQ  # noqa: E402
from idealkit.groebner import buchberger  # noqa: E402
from idealkit.orders import DegRevLex, Lex  # noqa: E402
from idealkit.poly import Ring  # noqa: E402

P = 32003
NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)
ORDERS = {"lex": Lex(3), "grevlex": DegRevLex(3)}
FIELDS = {"q": QQ, "fp": GF(P)}


def random_ideal(rng):
    """2-3 generators of 1-3 terms, exponents at most 2, small coefficients."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in NAMES)
            terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
        gens.append(terms)
    return gens


# Fixed cases with one variable at exponent 128 or more.
WIDE = [
    [{(130, 0, 0): 1, (0, 1, 1): -1}, {(0, 2, 0): 1, (1, 0, 1): -2}],
    [{(1, 0, 0): 1, (0, 64, 0): -1}, {(2, 0, 0): 1, (0, 1, 0): -1},
     {(0, 0, 1): 1, (0, 1, 0): 3}],
    [{(0, 0, 200): 2, (1, 1, 0): 1}, {(1, 0, 0): 1, (0, 0, 1): -1},
     {(0, 1, 0): 1, (0, 0, 0): -5}],
]


def ours(gens, field, order):
    ring = Ring(field, NAMES, order)
    return buchberger([ring.poly(g) for g in gens])


def theirs(gens, field, order, order_name):
    """sympy's reduced basis, made monic and moved into our ring."""
    ring = Ring(field, NAMES, order)
    options = {"modulus": P} if field is not QQ else {"domain": "QQ"}
    exprs = [sum(c * sympy.prod(s**e for s, e in zip(SYMBOLS, exps))
                 for exps, c in g.items()) for g in gens]
    basis = sympy.groebner(exprs, *SYMBOLS, order=order_name, **options)
    out = []
    for expr in basis.exprs:
        terms = sympy.Poly(expr, *SYMBOLS).as_dict()
        out.append(ring.poly({
            exps: Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
            for exps, c in terms.items()}).monic())
    return sorted(out, key=lambda g: g.lead_key())


CASES = [(seed, field, order)
         for seed in range(40) for field in FIELDS for order in ORDERS]


@pytest.mark.parametrize("seed, field, order", CASES)
def test_random_ideal_matches_sympy(seed, field, order):
    gens = random_ideal(random.Random(seed))
    expected = theirs(gens, FIELDS[field], ORDERS[order], order)
    assert ours(gens, FIELDS[field], ORDERS[order]) == expected


@pytest.mark.parametrize("case", range(len(WIDE)))
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
def test_wide_exponents_match_sympy(case, field, order):
    gens = WIDE[case]
    expected = theirs(gens, FIELDS[field], ORDERS[order], order)
    assert ours(gens, FIELDS[field], ORDERS[order]) == expected
