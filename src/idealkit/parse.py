"""Line-oriented textual input format for rings, polynomials, ideals, matrices.

Grammar (statements end with `;`, whitespace is free):

    ring Q[x,y,z];            ring Fp(7)[x,y];
    poly g = x^2*y - 3*z + 1;
    ideal I = f1, f2, x*y - z;
    matrix M 2x3 = [ x, y, 0 ; -z, x^2, g ];

Multiplication is always explicit (`*`), powers use `^`, and rational
coefficients may be written `p/q`. Expressions may reference previously
declared polynomials by name. All declared names share one namespace and
must be unique. Errors carry line and column.

Expressions are parsed into term dicts {exponent tuple: coefficient}, and
only a whole expression becomes a `Polynomial`. A sum adds into one dict; a
product with a sum on either side goes through `Polynomial.__mul__`.

Sizes are bounded: no exponent of a variable may pass MAX_EXPONENT, a power
of a sum may not pass MAX_SUM_POWER, no integer literal (in any field) and,
over Q, no numerator or denominator may pass MAX_COEFF_BITS bits. Literals
and powers are checked before they are computed, a product right after it
is computed, and a sum at each coefficient it changes (its operands are
within bounds). Open parentheses and unary minus signs may nest at most
MAX_NESTING deep, which keeps the recursive descent far from Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, sub

from .fields import GF, QQ
from .matrix import PolyMatrix
from .poly import Polynomial, Ring


MAX_EXPONENT = 100_000
MAX_NESTING = 100
MAX_SUM_POWER = 64
MAX_COEFF_BITS = 4096


def _top_exponent(terms) -> int:
    return max(map(max, terms)) if terms and next(iter(terms)) else 0


def _coeff_too_large(c) -> bool:
    """Whether a coefficient over Q breaks MAX_COEFF_BITS."""
    return (c.numerator.bit_length() > MAX_COEFF_BITS
            or c.denominator.bit_length() > MAX_COEFF_BITS)


def _power_bits(char: int, terms, n: int) -> int:
    """An upper bound on the coefficient bit length of terms**n over Q.

    With p = P/d for an integer polynomial P, the coefficients of P**n are
    at most |P|_1**n, where |P|_1 is the sum of P's absolute coefficients.
    """
    if char:
        return 0
    coeffs = terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    height = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return n * max((max(height, 1) - 1).bit_length(),
                   (den - 1).bit_length()) + 1


class InputError(Exception):
    """Parse or validation failure, locating the offending input."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


@dataclass
class Token:
    kind: str  # IDENT, INT, or a literal symbol
    text: str
    line: int
    col: int


_SYMBOLS = set("+-*^()[]=,;/")


def _tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_col = col
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(Token("INT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise InputError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass
class SessionInput:
    """Parsed session: one ring plus named polynomials, ideals, matrices."""

    ring: Ring
    polys: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)


def render_session(session: SessionInput) -> str:
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


class _Parser:
    def __init__(self, tokens, field_override=None, order=None):
        self.tokens = tokens
        self.pos = 0
        self.session: SessionInput | None = None
        self.field_override = field_override
        self.order = order
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or kind
            raise InputError(
                f"expected {want}, found {tok.text!r}" if tok.kind != "EOF"
                else f"expected {want}, found end of input",
                tok.line, tok.col)
        return self.next()

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise InputError(message, tok.line, tok.col)

    # -- statements --------------------------------------------------------

    def parse_session(self) -> SessionInput:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                self.error("expected a statement keyword")
            if tok.text == "ring":
                self._ring_stmt()
            elif tok.text == "poly":
                self._poly_stmt()
            elif tok.text == "ideal":
                self._ideal_stmt()
            elif tok.text == "matrix":
                self._matrix_stmt()
            else:
                self.error(
                    f"unknown statement {tok.text!r} "
                    "(expected ring, poly, ideal, or matrix)")
        if self.session is None:
            tok = self.peek()
            raise InputError("input declares no ring", tok.line, tok.col)
        return self.session

    def _require_ring(self) -> SessionInput:
        if self.session is None:
            self.error("a ring declaration must come first")
        return self.session

    def _declare(self, name_tok: Token):
        session = self._require_ring()
        name = name_tok.text
        if name in session.ring._index:
            self.error(f"name {name!r} is already a ring variable", name_tok)
        for table in (session.polys, session.ideals, session.matrices):
            if name in table:
                self.error(f"name {name!r} is already defined", name_tok)
        return name

    def _ring_stmt(self):
        tok = self.next()
        if self.session is not None:
            self.error("only one ring declaration is allowed", tok)
        field_tok = self.expect("IDENT", "a coefficient field (Q or Fp(p))")
        if field_tok.text == "Q":
            coeff_field = QQ
        elif field_tok.text == "Fp":
            self.expect("(")
            p_tok = self.expect("INT", "a prime modulus")
            self.expect(")")
            try:
                coeff_field = GF(int(p_tok.text))
            except ValueError as exc:
                raise InputError(str(exc), p_tok.line, p_tok.col) from None
        else:
            self.error(
                f"unknown field {field_tok.text!r} (expected Q or Fp(p))",
                field_tok)
        if self.field_override is not None:
            coeff_field = self.field_override
        self.expect("[")
        names = [self.expect("IDENT", "a variable name").text]
        while self.peek().kind == ",":
            self.next()
            names.append(self.expect("IDENT", "a variable name").text)
        close = self.expect("]")
        if len(set(names)) != len(names):
            raise InputError("duplicate variable name", close.line, close.col)
        self.expect(";")
        order = None if self.order is None else self.order(len(names))
        self._open(Ring(coeff_field, names, order))

    def _open(self, ring: Ring, session: SessionInput | None = None):
        """Start a session in ring, or continue `session` (whose ring it is).

        Each variable's unit term is built here.
        """
        self.session = SessionInput(ring) if session is None else session
        self.char = ring.field.char
        one, zeros = ring.field.one, (0,) * ring.nvars
        self.units = {name: {zeros[:i] + (1,) + zeros[i + 1:]: one}
                      for i, name in enumerate(ring.names)}

    def _poly_stmt(self):
        self.next()
        name_tok = self.expect("IDENT", "a polynomial name")
        name = self._declare(name_tok)
        self.expect("=")
        value = self._expr()
        self.expect(";")
        self.session.polys[name] = value

    def _ideal_stmt(self):
        self.next()
        name_tok = self.expect("IDENT", "an ideal name")
        name = self._declare(name_tok)
        self.expect("=")
        gens = [self._expr()]
        while self.peek().kind == ",":
            self.next()
            gens.append(self._expr())
        self.expect(";")
        self.session.ideals[name] = gens

    def _matrix_stmt(self):
        self.next()
        name_tok = self.expect("IDENT", "a matrix name")
        name = self._declare(name_tok)
        rows, cols = self._dims()
        self.expect("=")
        self.expect("[")
        data = [self._expr_list()]
        while self.peek().kind == ";":
            self.next()
            data.append(self._expr_list())
        self.expect("]")
        self.expect(";")
        if len(data) != rows or any(len(r) != cols for r in data):
            self.error(
                f"matrix {name!r} declared {rows}x{cols} but "
                f"given {len(data)} rows of sizes {[len(r) for r in data]}",
                name_tok)
        self.session.matrices[name] = PolyMatrix(self.session.ring, data)

    def _dims(self):
        """Parse `4x3` (lexed INT IDENT) or `4 x 3` (INT IDENT INT)."""
        rows_tok = self.expect("INT", "matrix dimensions like 4x3")
        rows = int(rows_tok.text)
        tok = self.expect("IDENT", "matrix dimensions like 4x3")
        if tok.text == "x":
            cols_tok = self.expect("INT", "a column count")
            return rows, int(cols_tok.text)
        cols = tok.text[1:]
        if tok.text.startswith("x") and cols.isascii() and cols.isdecimal():
            return rows, int(cols)
        self.error("expected matrix dimensions like 4x3", tok)

    def _expr_list(self):
        out = [self._expr()]
        while self.peek().kind == ",":
            self.next()
            out.append(self._expr())
        return out

    # -- expressions ------------------------------------------------------

    def _expr(self) -> Polynomial:
        start = self.peek()
        value = dict(self._term(start))
        get, p = value.get, self.char
        while self.peek().kind in ("+", "-"):
            op = add if self.next().kind == "+" else sub
            for e, c in self._term(start).items():
                c = op(get(e, 0), c)
                if p:
                    c %= p
                if not c:
                    del value[e]
                    continue
                value[e] = c
                if not p and _coeff_too_large(c):
                    raise InputError("coefficient too large",
                                     start.line, start.col)
        return Polynomial(self.session.ring, value)

    def _term(self, start: Token) -> dict:
        value = self._factor()
        while self.peek().kind == "*":
            self.next()
            other = self._factor()
            if len(value) == 1 == len(other):
                ((ea, ca),), ((eb, cb),) = value.items(), other.items()
                c = ca * cb
                value = {tuple(map(add, ea, eb)): c % self.char
                         if self.char else c}
            elif value and other:
                ring = self.session.ring
                value = (Polynomial(ring, value)
                         * Polynomial(ring, other)).terms
            else:
                value = {}
            if _top_exponent(value) > MAX_EXPONENT:
                raise InputError("exponent too large", start.line, start.col)
            if not self.char and any(map(_coeff_too_large, value.values())):
                raise InputError("coefficient too large",
                                 start.line, start.col)
        return value

    def _factor(self) -> dict:
        base = self._base()
        if self.peek().kind != "^":
            return base
        caret = self.next()
        exp_tok = self.expect("INT", "an exponent")
        digits = exp_tok.text.lstrip("0") or "0"
        exp = int(digits) if len(digits) <= 9 else None
        if (exp is None or exp * _top_exponent(base) > MAX_EXPONENT
                or (exp > MAX_SUM_POWER and len(base) > 1)):
            raise InputError("exponent too large", caret.line, caret.col)
        if len(base) == 1:
            ((exps, coeff),) = base.items()
            if coeff == 1:
                return {tuple(e * exp for e in exps): coeff}
        if _power_bits(self.char, base, exp) > MAX_COEFF_BITS:
            raise InputError("coefficient too large", caret.line, caret.col)
        return (Polynomial(self.session.ring, base)**exp).terms

    def _coefficient(self, tok: Token) -> int:
        digits = tok.text.lstrip("0") or "0"
        # d digits mean more than 3.3 * (d - 1) bits, so a longer literal is
        # too large without converting it.
        value = int(digits) if len(digits) <= MAX_COEFF_BITS // 3 else None
        if value is None or value.bit_length() > MAX_COEFF_BITS:
            self.error("coefficient too large", tok)
        return value

    def _base(self) -> dict:
        session = self._require_ring()
        ring = session.ring
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            num = self._coefficient(tok)
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("INT", "a denominator")
                den = self._coefficient(den_tok)
                if den == 0:
                    self.error("zero denominator", den_tok)
                try:
                    return ring.const(Fraction(num, den)).terms
                except ZeroDivisionError as exc:  # den vanishes mod p
                    self.error(str(exc), den_tok)
            return ring.const(num).terms
        if tok.kind == "IDENT":
            self.next()
            if tok.text in self.units:
                return self.units[tok.text]
            if tok.text in session.polys:
                return session.polys[tok.text].terms
            if tok.text in session.ideals or tok.text in session.matrices:
                self.error(
                    f"{tok.text!r} names an ideal or matrix, not a polynomial",
                    tok)
            self.error(f"unknown name {tok.text!r}", tok)
        if tok.kind in ("(", "-"):
            self.next()
            if self.depth == MAX_NESTING:
                self.error("expression nested too deeply", tok)
            self.depth += 1
            if tok.kind == "(":
                value = self._expr().terms
                self.expect(")")
            else:
                value = (-Polynomial(ring, self._factor())).terms
            self.depth -= 1
            return value
        self.error("expected a polynomial term")


def parse_session(source: str, field_override=None, order=None) -> SessionInput:
    """Parse a full session text; optionally force the field or the order.

    field_override replaces the coefficient field the ring statement names.
    order, when given, maps the variable count to the ring's monomial order
    (for example `Lex` or `DegRevLex`); without it the ring uses degrevlex.
    """
    return _Parser(_tokenize(source), field_override, order).parse_session()


def parse_poly(ring: Ring, source: str,
               session: SessionInput | None = None) -> Polynomial:
    """Parse a single polynomial expression in the given ring.

    With a session (over the same ring), the expression may use the names
    of its polynomials as a session file does; naming one of its ideals or
    matrices is an error.
    """
    parser = _Parser(_tokenize(source))
    parser._open(ring, session)
    value = parser._expr()
    parser.expect("EOF", "end of expression")
    return value
