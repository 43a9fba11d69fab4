"""Differential suite: reduced Groebner bases and matrices against sympy.

Seeded random ideals in Q[x, y, z] and GF(32003)[x, y, z], in lex and
grevlex order, must give the same reduced basis as sympy, an independent
implementation. Exponents go up to 3 per variable in the random cases,
and the 160 cases take a few seconds. A few fixed cases have one variable
at an exponent of 128 or more, so the basis is computed on widened packed
monomials.

The same oracle checks the Huneke kernel over GF(2), determinants and
ranks of seeded polynomial matrices over Q against sympy's `Matrix`, the
session parser against sympy's `Poly` of the same expression text,
colon ideals over Q against the `quotient` of sympy's `agca` ideals, and
the type of every coefficient over Q that leaves the Groebner kernel or
the matrix code, with some of the values against sympy's.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from idealkit.corpus import CORPUS  # noqa: E402
from idealkit import groebner  # noqa: E402
from idealkit.fields import GF, QQ  # noqa: E402
from idealkit.groebner import buchberger  # noqa: E402
from idealkit.idealops import Ideal, kernel_of_map  # noqa: E402
from idealkit.matrix import PolyMatrix  # noqa: E402
from idealkit.orders import DegRevLex, Lex  # noqa: E402
from idealkit.parse import parse_poly, parse_session  # noqa: E402
from idealkit.poly import Ring  # noqa: E402
from test_poly import _check_convention  # noqa: E402

P = 32003
NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)
ORDERS = {"lex": Lex(3), "grevlex": DegRevLex(3)}
FIELDS = {"q": QQ, "fp": GF(P)}


def random_ideal(rng):
    """2-3 generators of 1-3 terms, exponents at most 3, small coefficients."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in NAMES)
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


# Over Q the basis is kept as primitive integer polynomials with positive
# leads; these inputs exercise the content, the sign and the denominators.
F = Fraction
SCALAR_EDGES = {
    # Scalar multiples of 2x - 5y: one element enters the basis.
    "multiples": [{(1, 0, 0): F(6, 35), (0, 1, 0): F(-3, 7)},
                  {(1, 0, 0): -2, (0, 1, 0): 5},
                  {(1, 0, 0): F(-2, 9), (0, 1, 0): F(5, 9)}],
    # Large common integer factors, and a denominator sharing a factor.
    "big_content": [{(2, 0, 0): 10**30, (0, 1, 1): -3 * 10**30},
                    {(1, 1, 0): -7 * 10**25, (0, 0, 1): 14 * 10**25},
                    {(0, 2, 0): F(6 * 10**20, 7), (1, 0, 0): 2 * 10**20}],
    # x = 1/3 and x = 1/2: the unit ideal, reached by a constant remainder.
    "unit_by_remainder": [{(1, 0, 0): 1, (0, 0, 0): F(-1, 3)},
                          {(1, 0, 0): 1, (0, 0, 0): F(-1, 2)},
                          {(0, 1, 1): 2, (0, 0, 0): 1}],
    # A fractional constant among the generators.
    "unit_constant": [{(1, 1, 0): 3, (0, 0, 2): -1},
                      {(0, 0, 0): F(-2, 3)}],
}


@pytest.mark.parametrize("case", SCALAR_EDGES)
@pytest.mark.parametrize("order", ORDERS)
def test_integer_basis_edge_cases_match_sympy(case, order, monkeypatch):
    # Buchberger starts from the deduplicated inputs, so the scalar
    # multiples must collapse to one of them there.
    kept = []
    inputs = groebner._kernel_inputs

    def counting(pk, field, packed, tagged=False):
        gens = inputs(pk, field, packed, tagged)
        kept.append(len(gens))
        return gens

    monkeypatch.setattr(groebner, "_kernel_inputs", counting)
    gens = SCALAR_EDGES[case]
    expected = theirs(gens, QQ, ORDERS[order], order)
    assert ours(gens, QQ, ORDERS[order]) == expected
    if case == "multiples":
        assert kept == [1]


def test_huneke_kernel_over_gf2_matches_sympy():
    # sympy eliminates s from (x - s^6, y - s^7 - s^10, z - s^8) in lex with
    # s first; the s-free part of its basis is the lex basis of the kernel,
    # and it equals the lex basis of the two generators over GF(2).
    session = CORPUS["huneke"].session(GF(2))
    kernel = kernel_of_map([session.polys[n] for n in ("cx", "cy", "cz")],
                           NAMES)
    lex = Ring(kernel.ring.field, kernel.ring.names, Lex(3))
    ours_lex = buchberger([lex.convert(g) for g in kernel.gens])
    s = sympy.Symbol("s")
    x, y, z = SYMBOLS
    full = sympy.groebner([x - s**6, y - s**7 - s**10, z - s**8],
                          s, x, y, z, order="lex", modulus=2)
    ring = Ring(GF(2), NAMES, Lex(3))
    eliminated = sorted(
        (ring.poly({exps[1:]: int(c) % 2
                    for exps, c in sympy.Poly(g, s, x, y, z).as_dict().items()})
         for g in full.exprs if not g.has(s)),
        key=lambda g: g.lead_key())
    assert ours_lex == eliminated
    pair = sympy.groebner([z**3 + x**4, y**2 + x * z + x**2 * z],
                          x, y, z, order="lex", modulus=2)
    assert list(pair.exprs) == [g for g in full.exprs if not g.has(s)]


# -- determinants and ranks against sympy `Matrix` ---------------------------

def random_entry(rng):
    """0-2 terms in x, y, z, exponents at most 1, coefficients like -3/2."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        exps = tuple(rng.randint(0, 1) for _ in NAMES)
        terms[exps] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                               rng.randint(1, 2))
    return terms


def as_sympy(terms):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod(s**e for s, e in zip(SYMBOLS, exps))
               for exps, c in terms.items())


def from_sympy(ring, expr):
    terms = sympy.Poly(expr, *SYMBOLS).as_dict()
    return ring.poly({exps: Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                      for exps, c in terms.items()})


def random_matrix(rng, nrows, ncols):
    """The same random matrix as a PolyMatrix over Q and a sympy Matrix."""
    ring = Ring(QQ, NAMES)
    entries = [[random_entry(rng) for _ in range(ncols)]
               for _ in range(nrows)]
    ours = PolyMatrix(ring, [[ring.poly(e) for e in row] for row in entries])
    return ours, sympy.Matrix([[as_sympy(e) for e in row] for row in entries])


@pytest.mark.parametrize("size", [4, 5])
@pytest.mark.parametrize("seed", range(5))
def test_det_matches_sympy(size, seed):
    ours, theirs = random_matrix(random.Random(seed), size, size)
    expected = sympy.expand(theirs.det(method="berkowitz"))
    assert ours.det() == from_sympy(ours.ring, expected)


def sympy_rank(m):
    return DomainMatrix.from_Matrix(m).to_field().rank()


@pytest.mark.parametrize("nrows, inner, ncols", [
    (4, 1, 4), (5, 2, 4), (4, 3, 5), (5, 3, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_rank_of_thin_product_matches_sympy(nrows, inner, ncols, seed):
    # A product through `inner` dimensions has rank exactly `inner` when
    # both factors have that rank (Sylvester); sympy checks both factors and
    # the product over the fraction field.
    rng = random.Random(seed)
    a, sa = random_matrix(rng, nrows, inner)
    b, sb = random_matrix(rng, inner, ncols)
    assert sympy_rank(sa) == sympy_rank(sb) == inner
    assert sympy_rank(sa * sb) == inner
    assert (a * b).rank_profile()[0] == inner
    if nrows == ncols:
        assert (a * b).det().is_zero()


def test_rank_of_dense_product():
    # A 5x4 times 4x5 product over Q[x, y, z] whose entries have up to 10
    # terms with denominators. By Sylvester's inequality its rank is 4 once
    # both factors have rank 4, so sympy checks only the factors: its rank
    # of the product alone takes seconds.
    rng = random.Random(0)
    a, sa = random_matrix(rng, 5, 4)
    b, sb = random_matrix(rng, 4, 5)
    assert sympy_rank(sa) == sympy_rank(sb) == 4
    product = a * b
    assert product.rank_profile()[0] == 4
    assert product.det().is_zero()


# -- the session parser against sympy's reading of the same text ------------

def random_expression(rng, depth, names):
    """Session-grammar text: nested parentheses, chains of unary minus,
    powers of sums, p/q literals, named polys, zero factors and sums that
    cancel. Every operand of `*` and `^` is an atom or parenthesized, so
    Python reads the text (with `**` for `^`) the same way."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(5)
        if kind == 0:
            return str(rng.randint(0, 12))
        if kind == 1:  # no denominator vanishes mod 7 or 32003
            return f"{rng.randint(0, 40)}/{rng.choice((1, 2, 3, 5, 6, 9))}"
        return rng.choice(names)
    def sub():
        return random_expression(rng, depth - 1, names)

    kind = rng.randrange(8)
    if kind == 0:
        return f"{sub()} + {sub()}"
    if kind == 1:
        return f"{sub()} - {sub()}"
    if kind == 2:
        return f"({sub()})*({sub()})"
    if kind == 3:
        return f"({sub()})^{rng.randint(0, 3)}"
    if kind == 4:
        return "-" * rng.randint(1, 4) + f"({sub()})"
    if kind == 5:
        e = sub()
        return f"({e}) - ({e})" if rng.random() < 0.5 else f"({e}) + -({e})"
    if kind == 6:
        return f"0*({sub()})"
    return f"{rng.choice(names)}*{rng.choice(names)}^{rng.randint(0, 3)}"


@pytest.mark.parametrize("p", [0, 7, P])
@pytest.mark.parametrize("seed", range(20))
def test_parser_matches_sympy(p, seed):
    rng = random.Random(seed)
    head = "Q" if p == 0 else f"Fp({p})"
    texts = {}
    for name in ("f", "g", "h"):
        texts[name] = random_expression(rng, 4, list(NAMES) + list(texts))
    session = parse_session(f"ring {head}[{', '.join(NAMES)}];\n" + "".join(
        f"poly {name} = {text};\n" for name, text in texts.items()))
    scope = dict(zip(NAMES, SYMBOLS))
    for name, text in texts.items():
        expr = sympy.parse_expr(text.replace("^", "**"), local_dict=scope)
        scope[name] = expr
        expected = {}
        for exps, c in sympy.Poly(expr, *SYMBOLS).as_dict().items():
            num, den = int(sympy.numer(c)), int(sympy.denom(c))
            c = Fraction(num, den) if p == 0 else num * pow(den, -1, p) % p
            if c:
                expected[exps] = c
        terms = session.polys[name].terms
        assert terms == expected, (name, text)
        assert all(terms.values())
        if p:
            assert all(type(c) is int and 0 <= c < p for c in terms.values())
        else:
            assert all(type(c) is int or type(c) is Fraction
                       and c.denominator > 1 for c in terms.values())


# (generators of I, generators of J) in Q[x, y, z]; one generator of J is
# the colon by an element.
COLONS = [
    (["x^2*y - z", "y^3 - x*z"], ["x*y"]),
    (["x^2*y - z", "y^3 - x*z"], ["x", "y"]),
    (["x*z - y^2", "x^3 - y*z", "z^2 - x^2*y"], ["x"]),
    (["x^2", "x*y", "y^2"], ["x + y", "z"]),
    (["x^3 - y*z", "y^2*z - x", "z^3 - x*y"], ["x", "y*z"]),
    (["x*y - z^2", "x^2*z - y^3"], ["x*y + y*z", "z"]),
]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", range(len(COLONS)))
def test_colon_matches_sympy_quotient(case, order):
    # sympy's `agca` computes I : J from the syzygies of its own module
    # bases, with no signature step and no elimination variable.
    ring = Ring(QQ, NAMES, ORDERS[order])
    gens_i, gens_j = ([parse_poly(ring, text) for text in texts]
                      for texts in COLONS[case])
    I, J = Ideal(ring, gens_i), Ideal(ring, gens_j)
    ours = I.colon(gens_j[0]) if len(gens_j) == 1 else I.colon_ideal(J)
    agca = sympy.QQ.old_poly_ring(*SYMBOLS)

    def theirs(polys):
        return agca.ideal(*[as_sympy(p.terms) for p in polys])

    assert theirs(ours.groebner()) == theirs(gens_i).quotient(theirs(gens_j))


# -- the coefficient convention on every way out of the kernel ----------------

def random_poly(rng, ring):
    """1-3 terms, exponents at most 2, integer and fractional coefficients."""
    return ring.poly({
        tuple(rng.randint(0, 2) for _ in NAMES):
            Fraction(rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)),
                     rng.choice((1, 1, 2, 3)))
        for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("seed", range(6))
def test_coefficients_out_of_the_kernel_keep_the_convention(seed):
    # Over Q an integral coefficient is an int and any other a Fraction with
    # denominator above 1, whichever of division, the basis loop, colon,
    # elimination, a determinant or substitution made it.
    rng = random.Random(seed)
    ring = Ring(QQ, NAMES, DegRevLex(3))
    f, g, h, p = (random_poly(rng, ring) for _ in range(4))
    basis = buchberger([f, g, h])
    r = groebner.normal_form(p, basis)
    r2, qs = groebner.normal_form(p, [f, g, h], with_quotients=True)
    small, s_small = random_matrix(rng, 3, 3)  # cofactor expansion
    large, s_large = random_matrix(rng, 4, 4)  # Bareiss elimination
    sub = p.substitute([g, h, f], ring)
    results = [*basis, r, r2, *qs, small.det(), large.det(), sub,
               *Ideal(ring, [f, g]).colon(h).groebner(),
               *Ideal(ring, [f, g, h]).eliminate("x").groebner()]
    for q in results:
        _check_convention(q)
    kinds = {type(c) for q in results for c in q.terms.values()}
    assert kinds == {int, Fraction}, kinds
    assert r2 + sum(q * d for q, d in zip(qs, [f, g, h])) == p

    terms = [q.terms for q in (f, g, h)]
    assert basis == theirs(terms, QQ, ring.order, "grevlex")
    _, rem = sympy.reduced(as_sympy(p.terms),
                           [as_sympy(q.terms) for q in basis],
                           *SYMBOLS, order="grevlex")
    assert r == from_sympy(ring, rem)
    images = dict(zip(SYMBOLS, (as_sympy(q.terms) for q in (g, h, f))))
    assert sub == from_sympy(ring, sympy.expand(
        as_sympy(p.terms).subs(images, simultaneous=True)))
    for m, sm in ((small, s_small), (large, s_large)):
        assert m.det() == from_sympy(
            m.ring, sympy.expand(sm.det(method="berkowitz")))
