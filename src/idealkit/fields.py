"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

One coefficient convention holds everywhere: over Q an integral
coefficient is a plain int and any other a `fractions.Fraction` in lowest
terms with denominator above 1, over GF(p) a coefficient is an int in
``range(p)``, and no stored coefficient is zero. So integer arithmetic over
Q builds no `Fraction`; since `Fraction(n) == n`, with the same hash and
the same text, the choice shows in no comparison and no output. Values
enter a field through ``coerce``, the one place that converts them.
`Polynomial` and the Groebner kernel compute on coefficients with Python
operators, reduce mod ``char`` when it is set and otherwise store a
`Fraction` with denominator 1 as its numerator, so a field object supplies
only ``char``, ``name``, ``zero``, ``one``, ``coerce`` and ``inv`` (and
``p`` over GF(p)). Inside the kernel (see `groebner`) divisors over Q are
primitive integer polynomials, and over GF(p) working terms are unreduced
ints; every coefficient that leaves it follows the convention.
"""

from __future__ import annotations

import functools
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The smallest strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster, Math. Comp. 2017): below it the test above is a proof.
MR_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 primes as bases.

    Raises ValueError for n >= MR_PROVEN_BOUND, where a composite can pass.
    """
    if n >= MR_PROVEN_BOUND:
        raise ValueError(
            f"cannot prove {n} prime: moduli must lie below {MR_PROVEN_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals. An element is an int when it is integral,
    and a Fraction with denominator above 1 otherwise."""

    char = 0
    name = "Q"
    zero = 0
    one = 1

    def coerce(self, v) -> int | Fraction:
        if isinstance(v, int):
            return int(v)  # a bool becomes a plain int
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        raise TypeError(f"cannot coerce {v!r} into Q")

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)  # its own inverse, with no Fraction built
        return self.coerce(Fraction(1, a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for prime p. Elements are ints in range(p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.name = f"Fp({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v) -> int:
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {v} vanishes mod {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {v!r} into GF({self.p})")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.p})")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


@functools.cache
def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    return PrimeField(p)
