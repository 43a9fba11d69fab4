"""Sparse multivariate polynomials over an exact field.

A monomial is an exponent tuple, a polynomial is a dict mapping exponent
tuples to nonzero coefficients, and a ring bundles the field, the variable
names and the monomial order. `Ring.monomial` and `Ring.poly` take only
tuples of nvars non-negative ints, and `Ring.var` only a variable's name or
position; each raises ValueError otherwise. Polynomials are immutable by
convention: all arithmetic returns fresh objects and the term dict is never
mutated after construction.

Coefficients follow the one convention stated in `fields`; arithmetic
applies Python operators to them and reduces mod ``ring.field.char`` when
it is set. Over Q an int stays an int under sums, differences and
products, and a `Fraction` result whose denominator is 1 is stored as its
numerator.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import add, le, sub

from .orders import DegRevLex


def monomial_divides(a, b) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(map(le, a, b))


def monomial_div(a, b):
    """Exponent vector of a/b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


class Ring:
    """A polynomial ring: field, ordered variable names, monomial order."""

    def __init__(self, field, names, order=None):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.names)
        self.order = order if order is not None else DegRevLex(self.nvars)
        if self.order.nvars != self.nvars:
            raise ValueError("order arity does not match variable count")
        self._index = {n: i for i, n in enumerate(self.names)}
        # Packed-monomial layouts by field width, built by groebner on use.
        self._packings: dict = {}
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {(0,) * self.nvars: field.one})

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a ring variable") from None

    def var(self, i) -> "Polynomial":
        """The variable named i, or at position i; ValueError otherwise."""
        if isinstance(i, str):
            i = self.index(i)
        elif type(i) is not int or i not in range(self.nvars):
            raise ValueError(f"no variable at position {i!r} of {self.nvars}")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def const(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def _exponents(self, exps) -> tuple:
        """exps as a tuple of nvars non-negative ints; ValueError otherwise."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent arity mismatch")
        if not all(type(e) is int and e >= 0 for e in exps):
            raise ValueError(f"exponents must be non-negative ints: {exps}")
        return exps

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = self._exponents(exps)
        c = self.field.one if coeff is None else self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, {exps: c})

    def poly(self, terms: dict) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient}, dropping zeros."""
        clean = {}
        for exps, c in terms.items():
            exps, c = self._exponents(exps), self.field.coerce(c)
            if c != self.field.zero:
                clean[exps] = c
        return Polynomial(self, clean)

    def convert(self, p: "Polynomial") -> "Polynomial":
        """Map a polynomial into this ring, matching variables by name.

        Every variable of the source ring must exist here, or ValueError
        names the one missing; coefficients are coerced through this ring's
        field. Covers order changes, coefficient reduction mod p, and
        embeddings into rings with extra variables.
        """
        if p.ring is self:
            return p
        positions = [self.index(n) for n in p.ring.names]
        out = {}
        for exps, c in p.terms.items():
            buf = [0] * self.nvars
            for pos, v in zip(positions, exps):
                buf[pos] = v
            e = tuple(buf)
            c = self.field.coerce(c)
            if c != self.field.zero:
                out[e] = c
        return Polynomial(self, out)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Ring)
            and other.field == self.field
            and other.names == self.names
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self.names)}; {self.order}]"


class Polynomial:
    """Immutable sparse polynomial; `terms` maps exponent tuples to coefficients."""

    __slots__ = ("ring", "terms", "_sorted", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms
        self._sorted = None
        self._hash = None

    @classmethod
    def _descending(cls, ring: Ring, terms: dict) -> "Polynomial":
        """A polynomial whose term dict already lists its terms in
        descending order, so `sorted_terms` need not sort them."""
        p = cls(ring, terms)
        p._sorted = list(terms.items())
        return p

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, indices) -> int:
        """Max combined exponent over the given variable positions; -1 if zero."""
        if not self.terms:
            return -1
        return max(sum(e[i] for i in indices) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def sorted_terms(self):
        """Terms as (exps, coeff) pairs, descending in the ring's order."""
        if self._sorted is None:
            key = self.ring.order.key
            self._sorted = sorted(
                self.terms.items(), key=lambda t: key(t[0]), reverse=True
            )
        return self._sorted

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        return self.sorted_terms()[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead coefficient")
        return self.sorted_terms()[0][1]

    def lead_key(self):
        """The order key of the lead monomial; tests sort bases by it."""
        return self.ring.order.key(self.lead_monomial())

    # -- arithmetic --------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixing polynomials from different rings")
            return other
        return self.ring.const(other)

    def _combine(self, other, op):
        other = self._coerce_other(other)
        p = self.ring.field.char
        zero = self.ring.field.zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = op(out.get(e, zero), c)
            if p:
                s %= p
            elif type(s) is not int and s.denominator == 1:
                s = s.numerator
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial(self.ring, out)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return self.ring.const(other).__sub__(self)

    def __neg__(self):
        p = self.ring.field.char
        terms = self.terms.items()
        if p:
            return Polynomial(self.ring, {e: -c % p for e, c in terms})
        return Polynomial(self.ring, {e: -c for e, c in terms})

    def _scale(self, k):
        """self times the nonzero field element k."""
        p = self.ring.field.char
        terms = self.terms.items()
        if p:
            return Polynomial(self.ring, {e: c * k % p for e, c in terms})
        return Polynomial(self.ring, {
            e: s if type(s := c * k) is int or s.denominator != 1
            else s.numerator for e, c in terms})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.field.coerce(other)
            return self._scale(c) if c else self.ring.zero
        if other.ring != self.ring:
            raise ValueError("mixing polynomials from different rings")
        p = self.ring.field.char
        zero = self.ring.field.zero
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                s = get(e, zero) + ca * cb
                if p:
                    s %= p
                elif type(s) is not int and s.denominator == 1:
                    s = s.numerator
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divexact(self, d: "Polynomial") -> "Polynomial":
        """Quotient self / d when d divides exactly; raises otherwise.

        One division with quotients in `groebner.normal_form`, whatever the
        number of terms of d. No `src/` caller is left (Bareiss divides
        packed entries in `matrix`); it is kept as public API that the
        tests use and `perfbench/run.py` traces.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        from .groebner import normal_form

        r, (q,) = normal_form(self, [d], with_quotients=True)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "Polynomial":
        """self over its lead coefficient; tests and oracles compare by it."""
        if not self.terms:
            return self
        return self._scale(self.ring.field.inv(self.lead_coeff()))

    def substitute(self, images, target_ring: Ring) -> "Polynomial":
        """Evaluate at images[i] in place of variable i; images live in target_ring."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        result = target_ring.zero
        power = functools.cache(lambda i, n: images[i] ** n)
        for exps, c in self.terms.items():
            term = target_ring.const(c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    # -- equality and printing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            try:
                c = self.ring.const(other)
            except ZeroDivisionError:
                # A denominator that vanishes mod p: no element equals it.
                return False
            return self.terms == c.terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def _mono_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.ring.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            mono = self._mono_str(exps)
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if mono and cs == "1":
                body = mono
            elif mono:
                body = f"{cs}*{mono}"
            else:
                body = cs
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<{self}>"
