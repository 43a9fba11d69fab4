"""Dense matrices over a polynomial ring: products, determinants, minors, rank.

One fraction-free (Bareiss) elimination serves every exact determinant,
rank and null vector: `det` reads it from size 4 up (cofactor expansion
below), and `rank_profile` runs it on the rectangular matrix, so one pass
decides the rank over the fraction field and names a nonzero minor of that
size; `Ideal.min_generators_at_origin` and `smallest_valuation_vector` take
their ranks from it. Minor index sets follow the ascending-indices
convention.

The elimination runs on the Groebner kernel's representation (see
`groebner`): each entry is packed once into a dict of packed-int monomials
with int coefficients, products add packed ints, and an exponent that
outgrows its field starts the whole elimination again at a wider packing.
Over Q each row is first scaled by the lcm of its denominators, which moves
neither the rank nor the pivots, so every entry is an integer polynomial.
Each intermediate entry is then a minor of the scaled matrix (Sylvester's
identity), so each division by the previous pivot is exact in Z[x], or
Fp[x] over GF(p). The pivot becomes one tagged divisor through the
kernel's one divisor builder (`groebner._kernel_inputs`), and each
division is `groebner._exact_quotient`, one run of the kernel's division
as in `normal_form(..., with_quotients=True)`; a remainder raises
`ArithmeticError`, so everything stays in exact arithmetic. The tagged
terms stay inside `groebner`. Only the last pivot is unpacked, into the
determinant.
"""

from __future__ import annotations

# Unused here: the benchmark's tracer patches `matrix.ThreadPoolExecutor`
# by name, and this binding is the only reason for the import.
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod

from .groebner import (_Overflow, _divisors, _exact_quotient, _kernel_inputs,
                       _unpack, _widening)
from .poly import Polynomial

# 20x the largest minor ideal in the bundles (lemma4: 495 minors of 8 x 12).
MAX_MINORS = 10_000


class PolyMatrix:
    """Immutable rectangular matrix with polynomial entries."""

    def __init__(self, ring, rows):
        self.ring = ring
        conv = []
        width = None
        for row in rows:
            out = []
            for v in row:
                if isinstance(v, Polynomial):
                    out.append(ring.convert(v))
                else:
                    out.append(ring.const(v))
            if width is None:
                width = len(out)
            elif len(out) != width:
                raise ValueError("ragged matrix rows")
            conv.append(tuple(out))
        if not conv or width == 0:
            raise ValueError("matrix needs at least one row and column")
        self.rows = tuple(conv)
        self.nrows = len(conv)
        self.ncols = width

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def transpose(self) -> "PolyMatrix":
        """The transpose; kept for the det(M) == det(M^T) tests."""
        return PolyMatrix(self.ring, list(zip(*self.rows)))

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if other.ring != self.ring:
            raise ValueError("matrix product over mismatched rings")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        zero = self.ring.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    b = other.rows[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.ring, out)

    def __mul__(self, other):
        return self.mul(other)

    def __eq__(self, other):
        if isinstance(other, PolyMatrix):
            return self.ring == other.ring and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.rows))

    def submatrix(self, row_idx, col_idx) -> "PolyMatrix":
        """The rows and columns at the given indices, each in range(nrows)
        or range(ncols) and none repeated; ValueError otherwise."""
        rows = sorted(row_idx)
        cols = sorted(col_idx)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("repeated index in submatrix selection")
        if not (set(rows) <= set(range(self.nrows))
                and set(cols) <= set(range(self.ncols))):
            raise ValueError(f"index outside the {self.nrows}x{self.ncols} "
                             "matrix in submatrix selection")
        return PolyMatrix(
            self.ring, [[self.rows[i][j] for j in cols] for i in rows]
        )

    def det(self) -> Polynomial:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        # Below 4x4 the cofactor formula is kept. Through the packed
        # elimination, seeded random 2x2 minors in four variables took 1.7x
        # as long over Q and 2.9x over GF(32003); 3x3 ones 0.7x and 3.1x.
        if self.nrows < 4:
            return _laplace(self.rows, self.ring.zero)
        return self._bareiss()[3]

    def _bareiss(self):
        """(rank, pivot_rows, pivot_cols, det) of one elimination.

        Bareiss elimination over the whole rectangular matrix, on packed
        entries (see the module docstring), swapping rows to find a pivot
        and skipping columns that have none. The k-th pivot is, up to the
        parity of the row swaps, the minor of the row-scaled matrix on the
        first k pivot rows and columns. det is the determinant of a square
        matrix, zero below full rank: the parity times the last pivot, over
        the product of the rows' scales. For a matrix that is not square it
        is zero.
        """
        ring = self.ring
        field = ring.field
        p = field.char
        nrows, ncols = self.nrows, self.ncols

        def run(pk):
            guard = pk.guard
            m, scales = [], []
            for row in self.rows:
                packed = [pk.pack_terms(e) for e in row]
                scale = 1
                if not p:
                    scale = lcm(*[c.denominator
                                  for terms in packed for c in terms.values()])
                    packed = [{e: c.numerator * (scale // c.denominator)
                               for e, c in terms.items()} for terms in packed]
                m.append(packed)
                scales.append(scale)
            order = list(range(nrows))
            sign = 1
            pivot_cols = []
            # The previous pivot as one tagged divisor, and the divisor memo
            # of its divisions.
            divisor = memo = None
            k = 0
            for j in range(ncols):
                if k == nrows:
                    break
                sel = next((i for i in range(k, nrows) if m[i][j]), None)
                if sel is None:
                    continue
                if sel != k:
                    m[k], m[sel] = m[sel], m[k]
                    order[k], order[sel] = order[sel], order[k]
                    sign = -sign
                top = m[k]
                pivot = top[j]
                for i in range(k + 1, nrows):
                    row = m[i]
                    mij = row[j]
                    for c in range(j + 1, ncols):
                        # row[c] * pivot - mij * top[c], without zero products
                        v = {}
                        if row[c]:
                            _mul_into(v, row[c], pivot, guard, 1)
                        if mij and top[c]:
                            _mul_into(v, mij, top[c], guard, -1)
                        if divisor is None:
                            v = ({e: r for e, a in v.items() if (r := a % p)}
                                 if p else {e: a for e, a in v.items() if a})
                        elif v:
                            v = _exact_quotient(pk, p, v, divisor, memo)
                        row[c] = v
                    row[j] = {}
                divisor, memo = _divisors(_kernel_inputs(
                    pk, field, [pivot], tagged=True)), {}
                pivot_cols.append(j)
                k += 1
            det = ring.zero
            if k == nrows == ncols:
                last = dict(sorted(pivot.items(), reverse=True))
                det = _unpack(pk, ring, last,
                              field.coerce(Fraction(sign, prod(scales))))
            return k, tuple(order[:k]), tuple(pivot_cols), det

        return _widening(ring, run)

    def rank_profile(self):
        """(rank, pivot_rows, pivot_cols) by fraction-free elimination.

        The rank is over the fraction field of the ring. pivot_rows and
        pivot_cols list the pivots in elimination order; for every k up to
        the rank, the minor on the first k of each is, up to sign, the k-th
        pivot, so it is nonzero and every minor of size rank + 1 vanishes.
        """
        return self._bareiss()[:3]

    def minor(self, row_idx, col_idx) -> Polynomial:
        """Determinant of the submatrix on the given rows and columns."""
        sub = self.submatrix(row_idx, col_idx)
        if sub.nrows != sub.ncols:
            raise ValueError("minor index sets must have equal size")
        return sub.det()

    def minors(self, size: int):
        """All size x size minors, keyed by (rows, cols) ascending tuples.

        More than MAX_MINORS minors are refused before any is built.
        """
        if size < 1 or size > min(self.nrows, self.ncols):
            raise ValueError("minor size must lie in "
                             f"1..{min(self.nrows, self.ncols)}")
        count = comb(self.nrows, size) * comb(self.ncols, size)
        if count > MAX_MINORS:
            raise ValueError(f"{count} minors of size {size} exceed {MAX_MINORS}")
        return {
            (r, c): self.minor(r, c)
            for r in combinations(range(self.nrows), size)
            for c in combinations(range(self.ncols), size)
        }

    def maximal_minors(self):
        """Minors of maximal size, deduplicated up to sign.

        Kept for the acceptance and matrix tests, which read phi2's minors.
        Returns a list in scan order; each nonzero value is sign-normalized
        (lead coefficient positive over the rationals, least residue not
        above p // 2 over a prime field). Zero appears at most once.
        """
        return distinct_up_to_sign(self.minors(min(self.nrows, self.ncols)).values())

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.ring!r})"

    def __str__(self):
        cells = [[str(e) for e in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]"
            for row in cells
        )


def canonical_sign(p: Polynomial) -> Polynomial:
    """Pick the canonical representative of {p, -p}."""
    if p.is_zero():
        return p
    lc = p.lead_coeff()
    field = p.ring.field
    if field.char == 0:
        return p if lc > 0 else -p
    return p if lc <= field.char // 2 else -p


def distinct_up_to_sign(values):
    """canonical_sign of each value, in order, keeping the first of each."""
    return list(dict.fromkeys(map(canonical_sign, values)))


def _mul_into(acc, a, b, guard, s):
    """Add s * a * b to the packed term dict acc, coefficients unreduced.

    a and b are packed term dicts; a product monomial that sets a guard bit
    has overflowed its field and raises `_Overflow`.
    """
    get = acc.get
    for ea, ca in a.items():
        ca *= s
        for eb, cb in b.items():
            e = ea + eb
            if e & guard:
                raise _Overflow
            acc[e] = get(e, 0) + ca * cb


def _laplace(rows, zero):
    """Determinant by cofactor expansion along the first row.

    A zero entry or a zero minor adds nothing, so its product is never
    formed, as in the Bareiss row update.
    """
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        det = a * d if a and d else zero
        return det - b * c if b and c else det
    det = zero
    for j, a in enumerate(rows[0]):
        if a:
            minor = _laplace([r[:j] + r[j + 1:] for r in rows[1:]], zero)
            if minor:
                det = det - a * minor if j % 2 else det + a * minor
    return det
