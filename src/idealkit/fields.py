"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Field objects follow the domain-object convention: `Polynomial` never
touches coefficient internals, it calls ``field.add``, ``field.mul`` and so on.
Rational coefficients are `fractions.Fraction` (canonical lowest terms,
positive denominator by construction); prime-field coefficients are plain
ints in ``range(p)``. The Groebner kernel computes on plain ints in one loop
for both fields and uses only ``field.char`` there (see `groebner`). Over Q
it keeps every divisor and basis element as a primitive integer polynomial
and makes the basis monic, as Fractions, only on output. Over GF(p) it
holds unreduced ints, reduces each one mod p when it is popped, and returns
coefficients in ``range(p)``.
"""

from __future__ import annotations

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
    """The field of rationals. Elements are Fraction instances."""

    char = 0
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def to_str(a) -> str:
        return str(a)

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
            return v.numerator * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {v!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    @staticmethod
    def to_str(a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
