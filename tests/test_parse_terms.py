"""The expression parser on term dicts: where bounds are met, and what it calls.

Each case below crosses MAX_EXPONENT or MAX_COEFF_BITS only through a
product of two single terms or through the running sum of an expression,
never through a literal or a power, so it exercises the checks made on the
term dicts themselves. The expected line, column and message are those
that checking the whole sum or product after each operation gives.
"""

import pytest

from idealkit.parse import InputError, parse_poly, parse_session
from idealkit.poly import Polynomial

N = "9" * 1200          # 3987 bits: one literal is within MAX_COEFF_BITS
M = "7" * 1000          # 3322 bits
H = str(2**4096 - 1)    # 4096 bits: the largest literal allowed
D = str(2**2100 + 1)    # D and E are coprime: 1/D + 1/E has a 4200-bit
E = str(2**2100 - 1)    # denominator
RING = "ring Q[x, y];\n"


@pytest.mark.parametrize("body, line, col, reason", [
    # Products of single terms past MAX_EXPONENT.
    ("poly f = x^60000*y*x^40001;", 2, 10, "exponent too large"),
    ("poly f = 1 +\n  y*x^50000*x^50001 - x;", 2, 10, "exponent too large"),
    ("ideal I = x,\n  (y - x^99999*x*x);", 3, 4, "exponent too large"),
    ("poly g = x^50000;\nmatrix M 1x2 = [ y, 3*g*g*x ];", 3, 21,
     "exponent too large"),
    # Products of single terms past MAX_COEFF_BITS.
    (f"poly f = {N}*x*{N};", 2, 10, "coefficient too large"),
    (f"poly f = x + 1/{N}*y*1/{N};", 2, 10, "coefficient too large"),
    (f"poly f = y - ({N}/{N[:-1]}*x*{M});", 2, 15, "coefficient too large"),
    # Running sums past MAX_COEFF_BITS, numerator and denominator.
    (f"poly f = {H}*x + y + x;", 2, 10, "coefficient too large"),
    (f"poly f = {H} - {H} + {H} + 1;", 2, 10, "coefficient too large"),
    (f"poly f = x +\n  (y + 1/{D} + 1/{E});", 3, 4, "coefficient too large"),
    (f"poly f = {H}*x*y;\nideal I = y, f + x*y;", 3, 14,
     "coefficient too large"),
    (f"poly f = -{H}*y - -x + -(y*1);", 2, 10, "coefficient too large"),
])
def test_bounds_crossed_by_term_products_and_sums(body, line, col, reason):
    with pytest.raises(InputError) as exc:
        parse_session(RING + body)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (
        line, col, reason)


def test_sums_up_to_the_bound_parse():
    s = parse_session(RING + f"poly f = {H}*x + y - x + x;\n"
                      f"poly g = {H} - {H} + {H};\n")
    assert s.polys["f"].coeff((1, 0)) == 2**4096 - 1
    assert s.polys["g"] == 2**4096 - 1


SESSION = """\
ring Q[x, y, z, t];
poly f = t;
poly g = x^2*y^2 + x*t + x*t;
ideal I = x*t - 3*y^2, x*t - y*z, t^2 - x^2;
ideal J = y^2 - x*t, y*t - 3*x^2, -2/3*x*y*z^3 + 0*t;
matrix M 3x3 = [ x, t^2, y*t ; x, x*y, t ; t^2, 0, f*f*x ];
"""


def test_term_products_build_no_polynomial_product(monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    s = parse_session(SESSION)
    assert calls == []
    assert str(s.polys["g"]) == "x^2*y^2 + 2*x*t"
    # A product with a sum on one side is a Polynomial product.
    assert parse_poly(s.ring, "(x + y)*z") == parse_poly(s.ring, "x*z + y*z")
    assert calls == [1]


def test_variables_are_not_shared_by_value():
    # A sum must not write into the terms of a variable or a named poly.
    s = parse_session(RING + "poly f = x;\npoly g = x + x + y;\n"
                      "poly h = f - f;\npoly k = x;\n")
    x, y = s.ring.gens()
    assert (s.polys["f"], s.polys["g"]) == (x, 2 * x + y)
    assert s.polys["h"].is_zero()
    assert s.polys["k"] == x
