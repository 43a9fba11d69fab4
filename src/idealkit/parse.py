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

The source is cut into tokens once. A token is a plain string, and its
kind is read off its first character; `_TOKEN`, one regular expression,
defines them. A source of blanks, symbols and word characters alone, as
every session file is, is cut by `str.split` instead, once blanks are set
around each symbol and after each ASCII digit run that starts a word but
does not end it: the same tokens, for about half the cost. Tokens keep no
positions, so an `InputError` scans the source again with `_TOKEN` to find
the line and column of its token. A token that starts with a character
outside the grammar is reported first, wherever it stands, as a tokenizer
that checks the whole input before parsing would.

An expression is read into one term dict {exponent tuple: coefficient},
and only the whole expression becomes a `Polynomial`. Each product is
read in one loop while it is a single term: an exponent list and one
coefficient, which starts as the sign of the term. A variable (with an
optional `^INT`) and an integer literal that no `/` or `^` follows are
taken straight off the tokens, and every other factor (parentheses, a
unary minus, a fraction, a power of a sum, a named polynomial) is parsed by
the recursive descent of `_factor` and folded in when it is a single term.
The coefficient is a plain int (reduced mod p over GF(p)) until a fraction
is folded in, and over Q a term or a sum whose fractions cancel is stored
as an int, as `fields` has it. Once a factor is a sum, the product goes
through `Polynomial.__mul__`. A zero product stays zero: later factors are
parsed and checked, but not multiplied in. A fraction takes no power:
`p/q^n` is an error that asks for `(p/q)^n`, as `p^n/q` is one.

Sizes are bounded: no exponent of a variable may pass MAX_EXPONENT, a power
of a sum may not pass MAX_SUM_POWER, no integer literal (in any field) and,
over Q, no numerator or denominator may pass MAX_COEFF_BITS bits. Literals
and powers are checked before they are computed, a product right after
each factor is multiplied in (a zero product is not checked), and a sum at
each coefficient where two of its terms meet (its terms are within
bounds). A matrix dimension may have at most 9 digits. Open parentheses
and unary minus signs may nest at most MAX_NESTING deep, which keeps the
recursive descent far from Python's recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import add

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


# One token per match: blanks and comments are skipped, then an ASCII digit
# run, a word or one character is taken; the last match is the empty token
# at the end of input.
_TOKEN = re.compile(r"[ \t\r\n]*(?:#.*[ \t\r\n]*)*([0-9]+|\w+|.|\Z)")
_SYMBOLS = "+-*^()[]=,;/"
_BREAKS = _SYMBOLS + " \t\r\n"
# A source of blanks, symbols and word characters alone has the tokens of
# `_TOKEN` once each symbol and each ASCII digit run that starts a word but
# not ends it is set apart by blanks, so `str.split` cuts it.
_PLAIN = re.compile(r"[\w \t\r\n+\-*^()\[\]=,;/]*").fullmatch
_DIGITS = re.compile(r"[0-9]+(?=[^\W0-9])")
_SPACED = [(c, f" {c} ") for c in _SYMBOLS]


def _tokens(source: str) -> list:
    """The tokens that `_TOKEN` finds in source, up to the first ""."""
    if not _PLAIN(source):
        return _TOKEN.findall(source)
    source = _DIGITS.sub(_cut_digits, source)
    for c, spaced in _SPACED:
        source = source.replace(c, spaced)
    return [*source.split(), ""]


def _cut_digits(m) -> str:
    """The digit run m, and a blank after it when it starts a word."""
    start = m.start()
    return m[0] + " " if not start or m.string[start - 1] in _BREAKS else m[0]


def _kind(tok: str) -> str:
    """IDENT, INT, or the token itself: a symbol, "" at the end of input, or
    a token that starts with an unexpected character."""
    first = tok[:1]
    return ("IDENT" if first.isalpha() or first == "_"
            else "INT" if "0" <= first <= "9" else tok)


class SessionInput:
    """Parsed session: one ring plus named polynomials, ideals, matrices."""

    def __init__(self, ring: Ring, polys: dict | None = None,
                 ideals: dict | None = None, matrices: dict | None = None):
        self.ring = ring
        self.polys = {} if polys is None else polys
        self.ideals = {} if ideals is None else ideals
        self.matrices = {} if matrices is None else matrices


class _Parser:
    def __init__(self, source, field_override=None, order=None):
        self.source = source
        self.tokens = _tokens(source)
        self.pos = 0
        self.session: SessionInput | None = None
        self.field_override = field_override
        self.order = order
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def expect(self, kind: str, what: str | None = None) -> str:
        """The next token, which must be a symbol, "" (the end of input), an
        IDENT or an INT."""
        tok = self.tokens[self.pos]
        if (tok if len(kind) < 2 else _kind(tok)) != kind:
            want = what or kind
            self.error(f"expected {want}, found {tok!r}" if tok
                       else f"expected {want}, found end of input")
        self.pos += 1
        return tok

    def error(self, message: str, at: int | None = None):
        """Raise InputError at token index `at` (default: the next token).

        A token that starts with an unexpected character is reported first,
        wherever it is, so the error does not depend on how far parsing got.
        """
        for i, tok in enumerate(self.tokens):
            if (tok and tok not in _SYMBOLS
                    and _kind(tok) not in ("IDENT", "INT")):
                at, message = i, f"unexpected character {tok[0]!r}"
                break
        if at is None:
            at = self.pos
        source = self.source
        offset = next(islice(_TOKEN.finditer(source), at, None)).start(1)
        raise InputError(message, source.count("\n", 0, offset) + 1,
                         offset - source.rfind("\n", 0, offset))

    # -- statements --------------------------------------------------------

    def parse_session(self) -> SessionInput:
        while tok := self.tokens[self.pos]:
            if tok not in ("ring", "poly", "ideal", "matrix"):
                self.error("expected a statement keyword"
                           if _kind(tok) != "IDENT" else
                           f"unknown statement {tok!r} "
                           "(expected ring, poly, ideal, or matrix)")
            self.pos += 1
            getattr(self, "_" + tok)()
        if self.session is None:
            self.error("input declares no ring")
        return self.session

    def _declare(self, what: str):
        """The name a statement declares, checked to be new."""
        at = self.pos
        name = self.expect("IDENT", what)
        session = self.session
        if session is None:
            self.error("a ring declaration must come first")
        if name in session.ring._index:
            self.error(f"name {name!r} is already a ring variable", at)
        for table in (session.polys, session.ideals, session.matrices):
            if name in table:
                self.error(f"name {name!r} is already defined", at)
        return name

    def _ring(self):
        if self.session is not None:
            self.error("only one ring declaration is allowed", self.pos - 1)
        at = self.pos
        name = self.expect("IDENT", "a coefficient field (Q or Fp(p))")
        if name == "Q":
            coeff_field = QQ
        elif name == "Fp":
            self.expect("(")
            at = self.pos
            p = self.expect("INT", "a prime modulus")
            self.expect(")")
            try:
                coeff_field = GF(int(p))
            except ValueError as exc:
                self.error(str(exc), at)
        else:
            self.error(f"unknown field {name!r} (expected Q or Fp(p))", at)
        coeff_field = self.field_override or coeff_field
        self.expect("[")
        start = self.pos
        names = self._list(lambda: self.expect("IDENT", "a variable name"))
        self.expect("]")
        for i, name in enumerate(names):  # name i is token start + 2 * i
            if name in names[:i]:
                self.error("duplicate variable name", start + 2 * i)
        self.expect(";")
        order = None if self.order is None else self.order(len(names))
        self._open(Ring(coeff_field, names, order))

    def _open(self, ring: Ring, session: SessionInput | None = None):
        """Start a session in ring, or continue `session` (whose ring it is)."""
        self.session = SessionInput(ring) if session is None else session
        self.char = ring.field.char
        self.index = ring._index

    def _poly(self):
        name = self._declare("a polynomial name")
        self.expect("=")
        value = self._expr()
        self.expect(";")
        self.session.polys[name] = value

    def _ideal(self):
        name = self._declare("an ideal name")
        self.expect("=")
        gens = self._list(self._expr)
        self.expect(";")
        self.session.ideals[name] = gens

    def _matrix(self):
        at = self.pos
        name = self._declare("a matrix name")
        rows, cols = self._dims()
        self.expect("=")
        self.expect("[")
        data = self._list(lambda: self._list(self._expr), ";")
        self.expect("]")
        self.expect(";")
        if len(data) != rows or any(len(r) != cols for r in data):
            self.error(
                f"matrix {name!r} declared {rows}x{cols} but "
                f"given {len(data)} rows of sizes {[len(r) for r in data]}",
                at)
        self.session.matrices[name] = PolyMatrix(self.session.ring, data)

    def _dims(self):
        """Parse `4x3` (lexed INT IDENT) or `4 x 3` (INT IDENT INT)."""
        rows = self._dim(self.expect("INT", "matrix dimensions like 4x3"))
        at = self.pos
        tok = self.expect("IDENT", "matrix dimensions like 4x3")
        if tok == "x":
            return rows, self._dim(self.expect("INT", "a column count"))
        cols = tok[1:]
        if tok.startswith("x") and cols.isascii() and cols.isdecimal():
            return rows, self._dim(cols)
        self.error("expected matrix dimensions like 4x3", at)

    def _dim(self, digits: str) -> int:
        """The dimension in the token just read; more than 9 digits is an
        error at that token, raised before the literal is converted."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > 9:
            self.error("matrix dimension too large", self.pos - 1)
        return int(digits)

    def _list(self, read, sep: str = ","):
        """read() once, then again after each `sep`; the values in a list."""
        out = [read()]
        while self.tokens[self.pos] == sep:
            self.pos += 1
            out.append(read())
        return out

    # -- expressions ------------------------------------------------------

    def _expr(self) -> Polynomial:
        """A sum of products, added term by term into one dict. A bound
        that a product or the sum crosses is reported at its first token.

        A product starts as its sign, 1 or -1 (p - 1 over GF(p)), and while
        it is a single term it is the exponent list `exps` times `coeff`: a
        variable with an optional `^INT` and an integer literal that no `/`
        or `^` follows are read straight off the tokens in one loop, and
        any other factor is parsed by `_factor` and folded in when it has
        one term. A factor with several terms makes the product the term
        dict `prod`, multiplied as polynomials from then on; a zero product
        stays `coeff` = 0. A term whose monomial is new to the sum needs no
        check: a product is checked as it is built.
        """
        tokens, index, p = self.tokens, self.index, self.char
        start = pos = self.pos
        n, value, coeff = len(index), {}, 1
        while True:
            exps, prod = [0] * n, None
            while True:
                tok = tokens[pos]
                i = index.get(tok)
                if i is not None and prod is None:
                    pos += 1
                    if tokens[pos] == "^":
                        e = tokens[pos + 1]
                        e = (int(e) if "0" <= e[:1] <= "9" and len(e) < 7
                             else self._power(pos))
                        if e is None or e > MAX_EXPONENT:
                            self.error("exponent too large", pos)
                        pos += 2
                        exps[i] += e
                    else:
                        exps[i] += 1
                    if coeff and exps[i] > MAX_EXPONENT:
                        self.error("exponent too large", start)
                elif ("0" <= tok[:1] <= "9" and prod is None
                      and tokens[pos + 1] not in ("/", "^")):
                    coeff *= int(tok) if len(tok) < 7 else self._literal(pos)
                    pos += 1
                    if p:
                        coeff %= p
                    elif _coeff_too_large(coeff):
                        self.error("coefficient too large", start)
                else:
                    self.pos = pos
                    other = self._factor()
                    pos = self.pos
                    if not coeff:  # a zero product takes no factor in
                        pass
                    elif not other:
                        coeff, prod = 0, None
                    elif len(other) == 1 and prod is None:
                        ((e, c),) = other.items()
                        exps = list(map(add, exps, e))
                        if max(exps, default=0) > MAX_EXPONENT:
                            self.error("exponent too large", start)
                        coeff *= c
                        if p:
                            coeff %= p
                        elif _coeff_too_large(coeff):
                            self.error("coefficient too large", start)
                    elif prod is None and coeff == 1 and not any(exps):
                        prod = other
                    else:
                        ring = self.session.ring
                        if prod is None:
                            prod = {tuple(exps): coeff}
                        prod = (Polynomial(ring, prod)
                                * Polynomial(ring, other)).terms
                        if _top_exponent(prod) > MAX_EXPONENT:
                            self.error("exponent too large", start)
                        if not p and any(map(_coeff_too_large, prod.values())):
                            self.error("coefficient too large", start)
                if tokens[pos] != "*":
                    break
                pos += 1
            prod = (prod.items() if prod is not None else () if not coeff
                    else [(tuple(exps), coeff if type(coeff) is int
                           else QQ.coerce(coeff))])
            for e, c in prod:
                if e in value:
                    c = (c + value[e]) % p if p else QQ.coerce(c + value[e])
                    if not c:
                        del value[e]
                        continue
                    if not p and _coeff_too_large(c):
                        self.error("coefficient too large", start)
                value[e] = c
            tok = tokens[pos]
            if tok != "+" and tok != "-":
                break
            coeff = 1 if tok == "+" else p - 1
            pos += 1
        self.pos = pos
        return Polynomial(self.session.ring, value)

    def _power(self, caret: int):
        """The INT after the `^` at token `caret`, or None when it has more
        than 9 digits."""
        digits = self.tokens[caret + 1]
        if not "0" <= digits[:1] <= "9":
            self.pos = caret + 1
            self.expect("INT", "an exponent")
        digits = digits.lstrip("0") or "0"
        return int(digits) if len(digits) <= 9 else None

    def _factor(self) -> dict:
        base = self._base()
        caret = self.pos
        if self.tokens[caret] != "^":
            return base
        exp = self._power(caret)
        self.pos += 2
        if (exp is None or exp * _top_exponent(base) > MAX_EXPONENT
                or (exp > MAX_SUM_POWER and len(base) > 1)):
            self.error("exponent too large", caret)
        if len(base) == 1:
            ((exps, coeff),) = base.items()
            if coeff == 1:
                return {tuple(e * exp for e in exps): coeff}
        if _power_bits(self.char, base, exp) > MAX_COEFF_BITS:
            self.error("coefficient too large", caret)
        return (Polynomial(self.session.ring, base)**exp).terms

    def _literal(self, at: int) -> int:
        """The INT at token `at` as an int within MAX_COEFF_BITS."""
        digits = self.tokens[at].lstrip("0") or "0"
        # d digits mean more than 3.3 * (d - 1) bits, so a longer literal is
        # too large without converting it.
        value = int(digits) if len(digits) <= MAX_COEFF_BITS // 3 else None
        if value is None or value.bit_length() > MAX_COEFF_BITS:
            self.error("coefficient too large", at)
        return value

    def _base(self) -> dict:
        at = self.pos
        tok = self.tokens[at]
        session, ring = self.session, self.session.ring
        i = self.index.get(tok)
        if i is not None:
            self.pos += 1
            return ring.var(i).terms
        kind = _kind(tok)
        if kind == "INT":
            num = self._literal(at)
            self.pos += 1
            if self.tokens[self.pos] != "/":
                return ring.const(num).terms
            self.pos += 1
            at = self.pos
            self.expect("INT", "a denominator")
            den = self._literal(at)
            if den == 0:
                self.error("zero denominator", at)
            if self.tokens[self.pos] == "^":
                self.error("a power of a fraction needs parentheses: (p/q)^n")
            try:
                return ring.const(Fraction(num, den)).terms
            except ZeroDivisionError as exc:  # den vanishes mod p
                self.error(str(exc), at)
        if kind == "IDENT":
            if tok in session.polys:
                self.pos += 1
                return session.polys[tok].terms
            if tok in session.ideals or tok in session.matrices:
                self.error(
                    f"{tok!r} names an ideal or matrix, not a polynomial")
            self.error(f"unknown name {tok!r}")
        if tok == "(" or tok == "-":
            if self.depth == MAX_NESTING:
                self.error("expression nested too deeply")
            self.pos += 1
            self.depth += 1
            if tok == "(":
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
    return _Parser(source, field_override, order).parse_session()


def parse_poly(ring: Ring, source: str,
               session: SessionInput | None = None) -> Polynomial:
    """Parse a single polynomial expression in the given ring.

    With a session (over the same ring), the expression may use the names
    of its polynomials as a session file does; naming one of its ideals or
    matrices is an error.
    """
    parser = _Parser(source)
    parser._open(ring, session)
    value = parser._expr()
    parser.expect("", "end of expression")
    return value
