"""Session-file parsing: statements, expressions, rendering, diagnostics."""

import random
from fractions import Fraction

import pytest

from idealkit.fields import GF, QQ
from idealkit.parse import (
    _PLAIN,
    _TOKEN,
    MAX_NESTING,
    InputError,
    _tokens,
    parse_poly,
    parse_session,
)
from idealkit.poly import Ring


def render_session(session):
    """Canonical text for a session; parsing it back reproduces the data."""
    f = session.ring.field
    head = "Q" if f.char == 0 else f"Fp({f.char})"
    lines = [f"ring {head}[{', '.join(session.ring.names)}];"]
    for name, p in session.polys.items():
        lines.append(f"poly {name} = {p};")
    for name, gens in session.ideals.items():
        body = ", ".join(str(g) for g in gens)
        lines.append(f"ideal {name} = {body};")
    for name, m in session.matrices.items():
        rows = " ; ".join(", ".join(str(e) for e in row) for row in m.rows)
        lines.append(f"matrix {name} {m.nrows}x{m.ncols} = [ {rows} ];")
    return "\n".join(lines) + "\n"


BASIC = """\
# demo session
ring Q[x, y];
poly f = x^2 - 2*x*y + y^2;
poly g = f * (x + y);
ideal I = f, g, x^3;
matrix M 2x2 = [ x, y ; -y, x ];
"""


def test_parse_statements():
    s = parse_session(BASIC)
    assert s.ring.names == ("x", "y")
    assert s.ring.field is QQ
    x, y = s.ring.gens()
    assert s.polys["f"] == (x - y) ** 2
    assert s.polys["g"] == (x - y) ** 2 * (x + y)
    assert [p for p in s.ideals["I"]] == [s.polys["f"], s.polys["g"], x**3]
    assert s.matrices["M"].shape == (2, 2)
    assert s.matrices["M"].rows[1][0] == -y


def test_fraction_literals():
    s = parse_session("ring Q[x];\npoly f = 1/2*x + 3/4;\n")
    x, = s.ring.gens()
    f = s.polys["f"]
    assert f.coeff((1,)) == Fraction(1, 2)
    assert f.coeff((0,)) == Fraction(3, 4)


def test_prime_field_ring():
    s = parse_session("ring Fp(7)[x, y];\npoly f = 8*x + 1/2;\n")
    assert s.ring.field == GF(7)
    f = s.polys["f"]
    assert f.coeff((1, 0)) == GF(7).coerce(1)
    assert f.coeff((0, 0)) == GF(7).coerce(Fraction(1, 2))


def test_field_override():
    s = parse_session("ring Q[x];\npoly f = 7*x + 1/3;\n", field_override=GF(5))
    assert s.ring.field == GF(5)
    f = s.polys["f"]
    assert f.coeff((1,)) == GF(5).coerce(2)
    assert f.coeff((0,)) == GF(5).coerce(2)  # 1/3 = 2 mod 5


def test_matrix_dims_glued_and_spaced():
    glued = parse_session("ring Q[x];\nmatrix A 1x2 = [ x, x^2 ];\n")
    spaced = parse_session("ring Q[x];\nmatrix A 1 x 2 = [ x, x^2 ];\n")
    assert glued.matrices["A"].rows == spaced.matrices["A"].rows


def test_render_round_trip():
    s = parse_session(BASIC)
    text = render_session(s)
    again = parse_session(text)
    assert again.ring == s.ring
    assert again.polys == s.polys
    assert {k: list(v) for k, v in again.ideals.items()} == \
        {k: list(v) for k, v in s.ideals.items()}
    assert {k: v.rows for k, v in again.matrices.items()} == \
        {k: v.rows for k, v in s.matrices.items()}


def test_render_prime_field():
    s = parse_session("ring Fp(7)[x];\npoly f = 3*x;\n")
    text = render_session(s)
    assert "Fp(7)" in text
    assert parse_session(text).ring.field == GF(7)


def test_parse_poly_helper():
    ring = Ring(QQ, ("x", "y"))
    x, y = ring.gens()
    assert parse_poly(ring, "x^2 - y") == x**2 - y
    assert parse_poly(ring, "-(x + y)*(x - y)") == y**2 - x**2
    assert parse_poly(ring, "2") == ring.one * 2


def test_parse_poly_rejects_unknown_names():
    ring = Ring(QQ, ("x", "y"))
    with pytest.raises(InputError):
        parse_poly(ring, "x + w")


def test_expression_power_of_sum():
    s = parse_session("ring Q[x, y];\npoly f = (x + y)^3;\n")
    x, y = s.ring.gens()
    assert s.polys["f"] == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3


def test_unary_minus_and_precedence():
    s = parse_session("ring Q[x];\npoly f = -x^2;\npoly g = (-x)^2;\n")
    x, = s.ring.gens()
    assert s.polys["f"] == -(x**2)
    assert s.polys["g"] == x**2


def test_comments_and_blank_lines():
    src = "# leading comment\n\nring Q[x];  # trailing\n\npoly f = x;\n"
    assert "f" in parse_session(src).polys


@pytest.mark.parametrize("src, line, col, fragment", [
    ("poly f = x;", 1, 8, "ring"),
    ("ring Q[x];\nring Q[y];", 2, 1, "one ring"),
    ("ring Q[x];\npoly f = y;", 2, 10, "unknown name"),
    ("ring Q[x];\npoly x = x;", 2, 6, "already"),
    ("ring Q[x];\npoly f = x;\npoly f = x;", 3, 6, "already"),
    ("ring Q[x];\npoly f = x + ;", 2, 14, "expected"),
    ("ring Q[x];\npoly f = x^y;", 2, 12, "exponent"),
    ("ring Q[x];\nmatrix M 2x2 = [ x ; x ];", 2, 8, "sizes [1, 1]"),
    ("ring Q[x];\nmatrix M 1x1 = [ x ; x ];", 2, 8, "given 2 rows"),
    ("ring Q[x];\npoly f = 1/0;", 2, 12, "zero"),
    ("ring Fp(4)[x];", 1, 9, "prime"),
    ("ring Fp(3317044064679887385961981)[x];", 1, 9, "prime"),
    ("ring Q[x];\nideal I = x;\npoly f = I;", 3, 10, "not a polynomial"),
    ("ring Q[x] poly f = x;", 1, 11, "expected"),
    ("ring Q[x];\nfrobnicate f;", 2, 1, "statement"),
    ("ring Q[x];\npoly f = x $ x;", 2, 12, "character"),
    ("ring Q[x];\npoly f = 2^200000;", 2, 11, "coefficient too large"),
    ("ring Q[x];\npoly f = x^100000000000000000000;", 2, 11,
     "exponent too large"),
    ("ring Q[x];\npoly f = (2*x)^5000;", 2, 15, "coefficient too large"),
    ("ring Q[x];\npoly f = x^100001;", 2, 11, "exponent too large"),
    ("ring Q[x];\npoly f = (x^2)^50001;", 2, 15, "exponent too large"),
    ("ring Q[x];\npoly f = x^60000*x^60000;", 2, 10, "exponent too large"),
    ("ring Q[x];\npoly f = 2^4000*2^4000;", 2, 10, "coefficient too large"),
    ("ring Q[x];\npoly f = 2^4000*2^4000*2^4000;", 2, 10,
     "coefficient too large"),
    ("ring Q[x];\npoly f = 1 + 2^4000*2^4000*x;", 2, 10,
     "coefficient too large"),
    ("ring Q[x];\npoly f = 2^4095 + 2^4095 - 1;", 2, 10,
     "coefficient too large"),
    ("ring Q[x];\npoly f = x^60000*x^40000 + x^60000*x^60000;", 2, 10,
     "exponent too large"),
    ("ring Fp(7)[x];\npoly f = " + "1" * 1400 + ";", 2, 10,
     "coefficient too large"),
    ("ring Q[x];\npoly f = 1 + (2^4000*2^4000)^1;", 2, 15,
     "coefficient too large"),
    ("ring Q[x];\npoly f = (1/2*x + 1)^64*(x + 3)^4000;", 2, 32,
     "exponent too large"),
    ("ring Q[x];\npoly f = 1/" + "7" * 2000 + ";", 2, 12,
     "coefficient too large"),
    ("ring Q[x];\npoly f = ²;", 2, 10, "character"),
    ("ring Q[x];\nmatrix M 1x² = [ x ];", 2, 11, "matrix dimensions"),
    # Only ASCII 0-9 are digits; other decimal digits are not read as ints.
    ("ring Q[x];\npoly f = x^\u0663;", 2, 12, "character"),
    ("ring Q[x];\nmatrix M 1x\u0663 = [ x ];", 2, 11, "matrix dimensions"),
    ("ring Fp(\u0667)[x];", 1, 9, "character"),
    ("ring Q[x] # note", 1, 17, "end of input"),
    ("ring Fp(7)[x];\npoly f = 1/7*x;", 2, 12, "1/7 vanishes mod 7"),
    ("ring Q[x];\npoly f = " + "(" * 101 + "x" + ")" * 101 + ";", 2, 110,
     "nested too deeply"),
    ("ring Q[x];\npoly f = " + "-" * 101 + "x;", 2, 110, "nested too deeply"),
    ("ring Q[x];\npoly f = " + "-(" * 51 + "x" + ")" * 51 + ";", 2, 110,
     "nested too deeply"),
    ("ring R[x];", 1, 6, "unknown field 'R' (expected Q or Fp(p))"),
    ("ring Q[x, x];", 1, 11, "duplicate variable name"),
    ("ring Q[x, y,\n  z, y, x];", 2, 6, "duplicate variable name"),
    # Positions count code points; only \n starts a line. A tab, a \r and
    # each character of a comment take one column.
    ("ring Q[x];\n\tpoly f = y;", 2, 11, "unknown name 'y'"),
    ("ring Q[x];\npoly\tf =\tx + y;", 2, 14, "unknown name 'y'"),
    ("ring Q[x];\r\npoly f = y;\r\n", 2, 10, "unknown name 'y'"),
    ("ring Q[x];\r\npoly f = x\r\n", 3, 1, "found end of input"),
    ("ring Q[x];\n# a note: $ and ½\npoly f = y;", 3, 10,
     "unknown name 'y'"),
    ("ring Q[x];\npoly f = x\f;", 2, 11, "unexpected character '\\x0c'"),
    ("ring Q[x];\npoly f =\xa0x;", 2, 9, "unexpected character '\\xa0'"),
    ("ring Q[x];\npoly f = ½*x;", 2, 10, "unexpected character '½'"),
    ("ring Q[x];\npoly f = 2²;", 2, 11, "unexpected character '²'"),
    ("ring Q[x];\npoly f = x½;", 2, 10, "unknown name 'x½'"),
    ("ring Q[é];\npoly f = é + y;", 2, 14, "unknown name 'y'"),
    ("ring Q[x٣];\npoly f = x٣ + y;", 2, 15, "unknown name 'y'"),
    ("ring Q[IDENT, INT];\npoly f = IDENT*INT + y;", 2, 22,
     "unknown name 'y'"),
    ("ring Q[x];\npoly f = x\n\n\n", 5, 1, "found end of input"),
    ("# only a comment\n", 2, 1, "declares no ring"),
    # An unexpected character is reported before an earlier syntax error.
    ("ring Q[x] poly f = x $ x;", 1, 22, "unexpected character '$'"),
    # Products read in place: a product past a bound is reported at the
    # start of the expression, a power at its caret, and a zero product is
    # not checked. A trailing token shows that what comes before parsed.
    ("ring Q[x, y];\npoly f = x^60000*x^60000;", 2, 10, "exponent too large"),
    ("ring Q[x, y];\npoly f = x^60000*y^200000;", 2, 19, "exponent too large"),
    ("ring Q[x, y];\npoly f = x^60000*y*x^40001*y^200000;", 2, 10,
     "exponent too large"),
    ("ring Q[x];\npoly f = x*" + "9" * 1200 + "*" + "9" * 1200 + ";", 2, 10,
     "coefficient too large"),
    ("ring Fp(7)[x];\npoly f = " + "9" * 1200 + "*" + "9" * 1200 + "*x x;",
     2, 2414, "expected ;, found 'x'"),
    ("ring Q[x];\npoly f = 0*x^60000*x^60000 + (;", 2, 31,
     "expected a polynomial term"),
    ("ring Q[x];\npoly f = x^60000*0*x^60000*x^60000 x;", 2, 36,
     "expected ;, found 'x'"),
    ("ring Q[x];\npoly f = x^0*x^100000*x;", 2, 10, "exponent too large"),
    ("ring Q[x];\npoly f = x^007*x^99993 x;", 2, 24, "expected ;, found 'x'"),
    ("ring Q[x];\npoly f = x^007*x^99994;", 2, 10, "exponent too large"),
    ("ring Fp(7)[x];\npoly f = 7*x^60000*x^60000 x;", 2, 28,
     "expected ;, found 'x'"),
    ("ring Fp(7)[x];\npoly f = x^60000*7*x^60000*(x + 1) x;", 2, 36,
     "expected ;, found 'x'"),
    ("ring Q[x, y];\npoly f = -x*y*x^99999*x;", 2, 10, "exponent too large"),
    ("ring Q[x, y];\npoly f = 2*(x + y)*x^99999*x^2;", 2, 10,
     "exponent too large"),
    ("ring Q[x, y];\npoly f = x^99999*y;\npoly g = y + f*x*x;", 3, 10,
     "exponent too large"),
    ("ring Q[x, y];\npoly f = 3/4*x^100000*x;", 2, 10, "exponent too large"),
    ("ring Q[x, y];\npoly f = 3/4*" + "9" * 1200 + "*x*" + "9" * 1200 + ";",
     2, 10, "coefficient too large"),
    # A single-term factor folded into the product, and a product of two
    # factors with several terms each.
    ("ring Q[x];\npoly f = x^99999*(x^2);", 2, 10, "exponent too large"),
    ("ring Q[x];\npoly f = (2^4000*x + 1)*(2^200*x + 1);", 2, 10,
     "coefficient too large"),
    # A matrix dimension is checked at its token before it is converted.
    ("ring Q[x];\nmatrix M " + "9" * 5000 + "x1 = [x];", 2, 10,
     "matrix dimension too large"),
    ("ring Q[x];\nmatrix M 1x" + "9" * 5000 + " = [x];", 2, 11,
     "matrix dimension too large"),
])
def test_error_positions(src, line, col, fragment):
    with pytest.raises(InputError) as exc:
        parse_session(src)
    err = exc.value
    assert err.line == line
    assert err.col == col
    assert fragment in err.reason
    assert f"line {line}, column {col}" in str(err)


@pytest.mark.parametrize("src, line, col, reason", [
    ("x +", 1, 4, "expected a polynomial term"),
    ("x y", 1, 3, "expected end of expression, found 'y'"),
    ("x + $", 1, 5, "unexpected character '$'"),
    ("(x", 1, 3, "expected ), found end of input"),
    ("x^2 *\n  z", 2, 3, "unknown name 'z'"),
    ("", 1, 1, "expected a polynomial term"),
])
def test_parse_poly_error_positions(src, line, col, reason):
    with pytest.raises(InputError) as exc:
        parse_poly(Ring(QQ, ("x", "y")), src)
    assert (exc.value.line, exc.value.col, exc.value.reason) == \
        (line, col, reason)


def test_nesting_up_to_the_bound_parses():
    parens = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    minus = "-" * MAX_NESTING + "x"
    mixed = "-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2)
    s = parse_session(f"ring Q[x];\npoly f = {parens};\npoly g = {minus};\n"
                      f"poly h = {mixed};\npoly k = {parens} + {minus};\n")
    x = s.ring.var("x")
    sign = (-1) ** MAX_NESTING
    assert s.polys["f"] == x
    assert s.polys["g"] == sign * x
    assert s.polys["h"] == (-1) ** (MAX_NESTING // 2) * x
    assert s.polys["k"] == x + sign * x
    assert parse_poly(s.ring, parens) == x


def test_unterminated_statement():
    with pytest.raises(InputError):
        parse_session("ring Q[x];\npoly f = x")


def test_big_exponent_guard():
    with pytest.raises(InputError):
        parse_session("ring Q[x, y];\npoly f = (x + y)^100;\n")
    # single variables may use large exponents
    s = parse_session("ring Q[x];\npoly f = x^100;\n")
    assert s.polys["f"].degree() == 100


def test_size_bounds_allow_what_fits():
    s = parse_session("ring Q[x, y];\npoly f = x^100000*y;\n"
                      "poly g = (1/2*x + 3)^64;\npoly h = 2^4000;\n")
    assert s.polys["f"].degree() == 100001
    assert s.polys["h"] == 2**4000
    # Over GF(p) coefficients stay reduced, so powers and products of
    # literals are not bounded; only each literal and each exponent is.
    s = parse_session("ring Fp(7)[x];\npoly f = 3^200000*x^0;\n")
    assert s.polys["f"] == pow(3, 200000, 7)


def test_power_of_a_fraction_needs_parentheses():
    # sympy reads p/q^n as p/(q^n); rather than pick a reading, the parser
    # asks for parentheses, as p^n/q already fails.
    with pytest.raises(InputError) as exc:
        parse_session("ring Q[x];\npoly f = 2/3^2*x;\n")
    assert (exc.value.line, exc.value.col) == (2, 13)
    assert "(p/q)^n" in exc.value.reason
    s = parse_session("ring Q[x];\npoly f = (2/3)^2*x;\n")
    assert s.polys["f"] == Fraction(4, 9) * s.ring.var("x")


# Blanks, symbols and word characters, among them digits and letters that
# are not ASCII, and characters that only the token pattern handles.
PLAIN = "xy_0129\u0663\u00e9\u00b2\u00bd \t\r\n+-*^()[]=,;/"
OTHER = "#$.\f\xa0"


@pytest.mark.parametrize("seed", range(5))
def test_split_tokens_match_the_token_pattern(seed):
    rng = random.Random(seed)
    for k in range(400):
        chars = [rng.choice(PLAIN) for _ in range(rng.randrange(24))]
        if k % 4 == 0:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(OTHER))
        src = "".join(chars)
        assert bool(_PLAIN(src)) == (k % 4 != 0)
        got, expected = _tokens(src), _TOKEN.findall(src)
        # Both end at the first "", the end of input.
        assert got[:got.index("") + 1] == expected[:expected.index("") + 1]
