"""Buchberger's algorithm with sugar selection and Gebauer-Moeller pruning.

The module computes unique reduced Groebner bases: elements are monic,
no lead monomial divides another, no term of any element is divisible by the
lead monomial of another, and the basis is sorted ascending by lead monomial.
Division is deterministic (lowest-index divisor first) and can record the
quotients, which is what ideal-membership witnesses are built from.

Division, the Buchberger loop and its Gebauer-Moeller pair criteria run on
packed monomials (Monagan and Pearce, JSC 2011; Roune and Stillman, ISSAC
2012). A packed monomial is one int: each exponent has a field of `width`
bits whose top bit is a guard bit, the total degree sits above the exponent
fields, and the order key sits above the degree. Order keys are additive
(see `orders`), so the product of two monomials is the sum of their ints,
comparing ints compares monomials in the ring's order, and a divides b
exactly when `(b - a) & guard` is zero. A product that sets a guard bit has
overflowed its field: the whole call then starts again with fields twice as
wide (8, 16, 32, ... bits), so no result depends on the width. `buchberger`
and `normal_form` pack their input once and unpack their result once;
`Polynomial` and every public signature here keep exponent tuples.

Each division keeps a memo of divisor queries: it maps a packed monomial
to i when leads[i] is the lowest-index lead that divides it, and to ~k when
none of leads[:k] does, so a later query takes i at once or resumes the
scan at k. Buchberger only appends to its leads, so an entry stays true
for the rest of the run, and one memo serves every S-pair reduction of one
`_buchberger` call at one width; a restart at a wider packing builds a new
one. `normal_form` and the final inter-reduction start from an empty memo.

Coefficients are plain ints inside the kernel, one loop for both fields.
Over GF(p) every divisor and basis element is monic, and the kernel
reduces lazily (Monagan and Pearce): working terms hold unreduced ints,
each is reduced mod p only when it is popped, and a popped zero is
skipped, so every coefficient that leaves the kernel lies in range(p).
Over Q each divisor is a primitive integer polynomial (coprime integer
coefficients, positive lead coefficient a), as in sympy's `groebnertools`:
to cancel a term c*m, the working polynomial is multiplied by a/gcd(a, c)
and (c/gcd(a, c)) times the divisor is subtracted, so no `Fraction` is
built per term, and each finished remainder is divided by its content
once. The basis is made monic only when it is unpacked, and `normal_form`
divides its integer remainder and quotients by the product of the scale
factors, so both fields give the same results as monic division over the
field.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul, sub

from .poly import Polynomial, monomial_div, monomial_lcm


class _Overflow(Exception):
    """A packed exponent outgrew its field; retry with wider fields."""


class _Packing:
    """Packed-int monomials of one ring at one field width."""

    def __init__(self, ring, width):
        n = ring.nvars
        self.max_exp = (1 << (width - 1)) - 1
        self.field_mask = (1 << width) - 1
        self.shifts = [width * (n - 1 - i) for i in range(n)]
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.deg_shift = width * n
        # The degree of a product of two in-range monomials stays below
        # 2 * n * max_exp, so it never carries into the key.
        deg_bits = width + n.bit_length()
        self.deg_mask = (1 << deg_bits) - 1
        key_shift = self.deg_shift + deg_bits
        # Key component k is a linear form in the exponents, so over
        # exponents in [0, max_exp] it spans at most sum_i |c_ik| * max_exp.
        # Written as digits in a base above that span, the keys compare as
        # ints exactly as they compare as tuples.
        cols = [ring.order.key(tuple(int(i == j) for j in range(n)))
                for i in range(n)]
        span = max((sum(abs(v) for v in row) for row in zip(*cols)), default=0)
        base = 1 << (span * self.max_exp).bit_length()
        self.units = []
        for i, col in enumerate(cols):
            weight = 0
            for v in col:
                weight = weight * base + v
            self.units.append((weight << key_shift) | (1 << self.deg_shift)
                              | (1 << self.shifts[i]))

    def pack(self, exps):
        if exps and max(exps) > self.max_exp:
            raise _Overflow
        return sum(map(mul, exps, self.units))

    def unpack(self, m):
        f = self.field_mask
        return tuple((m >> s) & f for s in self.shifts)

    def pack_terms(self, p):
        """Packed copy of p's term dict, in p's term order."""
        pack = self.pack
        return {pack(e): c for e, c in p.terms.items()}


def _packing(ring, width):
    """The ring's packing at this width, built on first use."""
    pk = ring._packings.get(width)
    if pk is None:
        pk = ring._packings[width] = _Packing(ring, width)
    return pk


def _widening(ring, run):
    """run(packing) at field widths 8, 16, 32, ... until nothing overflows."""
    width = 8
    while True:
        try:
            return run(_packing(ring, width))
        except _Overflow:
            width *= 2


def _tail(terms, lead):
    """The (monomial, coeff) pairs of a packed term dict below its lead."""
    return [(m, c) for m, c in terms.items() if m != lead]


def _normalize(field, terms, lead):
    """(k * terms, k) for the k that puts terms in the kernel's form.

    Over Q the result has coprime integer coefficients and a positive lead;
    over GF(p) it is monic. k is a field element.
    """
    p = field.char
    if p:
        k = field.inv(terms[lead])
        if k == 1:
            return terms, k
        return {m: c * k % p for m, c in terms.items()}, k
    den = lcm(*[c.denominator for c in terms.values()])
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = gcd(*ints.values())
    if ints[lead] < 0:
        g = -g
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
    return ints, Fraction(den, g)


def _unpack(pk, ring, terms, k):
    """Polynomial of the packed kernel terms times the field element k."""
    unpack = pk.unpack
    p = ring.field.char
    if p:
        return Polynomial(ring, {unpack(m): c * k % p
                                 for m, c in terms.items()})
    num, den = k.numerator, k.denominator
    return Polynomial(ring, {unpack(m): Fraction(c * num, den)
                             for m, c in terms.items()})


def _divide(pk, p, terms, leads, lcs, tails, record, sugar, sugars, memo):
    """Divide the packed term dict `terms` (consumed) by packed divisors.

    p is the field's characteristic. Divisor i has lead monomial leads[i],
    lead coefficient lcs[i] (1 over GF(p)) and the terms below its lead in
    tails[i]. Working terms are unreduced ints: the largest one is popped,
    reduced mod p when p is set and skipped when zero, so a term that
    cancels stays in `terms` as an int that is 0 (mod p). The popped c*m
    goes to the lowest-index divisor whose lead divides it; over Q, with
    a = lcs[i] and g = gcd(a, c), the working terms, the remainder and the
    recorded quotients are first multiplied by a/g. Then (c/g) * m/lead_i
    times divisor i is subtracted. When record is not None it collects
    quotient terms per divisor. When sugars is given the running sugar
    degree is threaded through. memo maps a packed monomial to the index of
    its lowest-index dividing lead, or to ~k when no lead in leads[:k]
    divides it; it is read and extended here and stays valid for later
    calls whose leads extend these. Returns (remainder, sugar, u), with u the
    product of the multipliers (1 over GF(p)): u * dividend == remainder +
    sum(record[i] * divisor_i). The remainder lists its terms in descending
    order; its coefficients and the quotients' lie in range(p) over GF(p).
    """
    guard = pk.guard
    deg_shift, deg_mask = pk.deg_shift, pk.deg_mask
    get = terms.get
    pop = terms.pop
    divisor = memo.get
    n = len(leads)
    remainder: dict = {}
    u = 1
    heap = [-m for m in terms]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = pop(m)
        if p:
            c %= p
        if not c:
            continue
        i = divisor(m, -1)
        if i < 0:
            for i in range(~i, n):
                if not (m - leads[i]) & guard:
                    break
            else:
                memo[m] = ~n
                remainder[m] = c
                continue
            memo[m] = i
        t = m - leads[i]
        a = lcs[i]
        if a != 1:
            g = gcd(a, c)
            c //= g
            f = a // g
            if f != 1:
                u *= f
                for part in (terms, remainder, *(record or ())):
                    for e, v in part.items():
                        part[e] = v * f
        if record is not None:
            record[i][t] = c
        if sugars is not None:
            s = sugars[i] + ((t >> deg_shift) & deg_mask)
            if s > sugar:
                sugar = s
        for e, gc in tails[i]:
            e += t
            if e & guard:
                raise _Overflow
            prev = get(e)
            if prev is None:
                terms[e] = -c * gc
                heappush(heap, -e)
            else:
                terms[e] = prev - c * gc
    return remainder, sugar, u


def normal_form(p, gens, with_quotients=False):
    """Fully reduce p modulo gens; optionally return division quotients.

    Returns r, or (r, [q_0, ..., q_{n-1}]) with p == sum(q_i * gens[i]) + r
    and no term of r divisible by any lead monomial of gens. Divisor choice
    is lowest index first, so results are reproducible.
    """
    ring = p.ring
    gens = list(gens)
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators must share the ring of p")
        if g.is_zero():
            raise ValueError("zero generator in division")
    field = ring.field

    def run(pk):
        leads, lcs, tails, scales = [], [], [], []
        for g in gens:
            terms = pk.pack_terms(g)
            lead = max(terms)
            terms, k = _normalize(field, terms, lead)
            leads.append(lead)
            lcs.append(terms[lead])
            tails.append(_tail(terms, lead))
            scales.append(k)
        terms, k = pk.pack_terms(p), field.one
        if terms:
            terms, k = _normalize(field, terms, max(terms))
        record = [{} for _ in gens] if with_quotients else None
        rem, _, u = _divide(pk, field.char, terms, leads, lcs, tails,
                            record, 0, None, {})
        # u * k * p == rem + sum(record[i] * scales[i] * gens[i])
        w = field.inv(u * k)
        r = _unpack(pk, ring, rem, w)
        if not with_quotients:
            return r
        return r, [_unpack(pk, ring, q, s * w)
                   for q, s in zip(record, scales)]

    return _widening(ring, run)


def s_polynomial(f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = monomial_lcm(lf, lg)
    field = f.ring.field
    a = f.term_mul(field.inv(f.lead_coeff()), monomial_div(lcm, lf))
    b = g.term_mul(field.inv(g.lead_coeff()), monomial_div(lcm, lg))
    return a - b


def _update_pairs(pk, live, leads, exps, sugars, t):
    """Gebauer-Moeller update after appending the element with lead leads[t].

    exps[k] is the exponent tuple of leads[k]. Pairs are heap entries
    (sugar, lcm, i, j) with a packed lcm. Among the new pairs (i, t), a pair
    is kept when its leads are not coprime (product criterion) and no other
    new pair's lcm strictly divides its lcm or equals it at a lower index
    (chain criterion). An old pair (i, j) leaves `live` when the new lead
    divides its lcm and its lcm differs from those of (i, t) and (j, t).
    Returns the surviving new pairs.
    """
    guard, units = pk.guard, pk.units
    deg_shift, deg_mask = pk.deg_shift, pk.deg_mask
    lt, et = leads[t], exps[t]
    sugar_t = sugars[t] - ((lt >> deg_shift) & deg_mask)
    fresh = []
    for i in range(t):
        li, ei = leads[i], exps[i]
        # Packing is linear, so adding the packed increments max(ei, et) - ei
        # to li packs the lcm; in-range monomials have an in-range lcm.
        lcm = li + sum(map(mul, map(sub, map(max, ei, et), ei), units))
        sugar = (max(sugars[i] - ((li >> deg_shift) & deg_mask), sugar_t)
                 + ((lcm >> deg_shift) & deg_mask))
        fresh.append((sugar, lcm, i, t))

    survivors = []
    for i, pair in enumerate(fresh):
        la = pair[1]
        if leads[i] + lt == la:
            continue
        for b, (_, lb, _, _) in enumerate(fresh):
            if not (la - lb) & guard and b != i and (lb != la or b < i):
                break
        else:
            survivors.append(pair)

    live.difference_update([
        (sugar, lcm, i, j) for sugar, lcm, i, j in live
        if not (lcm - lt) & guard
        and fresh[i][1] != lcm and fresh[j][1] != lcm
    ])
    return survivors


def buchberger(polys):
    """Reduced Groebner basis of the given polynomials.

    Uses sugar-degree pair selection with Gebauer-Moeller pruning, then
    minimizes and inter-reduces. Returns a list sorted ascending by lead
    monomial.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    for p in polys:
        if p.ring != ring:
            raise ValueError("generators must share one ring")
    return _widening(ring, lambda pk: _buchberger(pk, ring, polys))


def _buchberger(pk, ring, polys):
    field = ring.field
    guard = pk.guard

    # Basis element k: packed terms basis[k] in the form `_normalize` gives,
    # packed lead leads[k] with exponent tuple exps[k], lead coefficient
    # lcs[k], tail tails[k]. Pairs wait in `heap`; `live` holds those not
    # yet popped or pruned, so a popped pair outside it is skipped.
    # `divisors` is the divisor memo of `_divide` for every S-pair
    # reduction of this run: `leads` only grows, so its entries stay true.
    basis: list[dict] = []
    leads: list[int] = []
    lcs: list[int] = []
    tails: list[list] = []
    exps: list[tuple] = []
    sugars: list[int] = []
    heap: list[tuple] = []
    live: set[tuple] = set()
    divisors: dict[int, int] = {}

    def add(terms, lead, sugar):
        basis.append(terms)
        leads.append(lead)
        lcs.append(terms[lead])
        tails.append(_tail(terms, lead))
        exps.append(pk.unpack(lead))
        sugars.append(sugar)
        for pair in _update_pairs(pk, live, leads, exps, sugars,
                                  len(basis) - 1):
            live.add(pair)
            heappush(heap, pair)

    seen = set()
    for p in polys:
        terms = pk.pack_terms(p)
        lead = max(terms)
        terms, _ = _normalize(field, terms, lead)
        key = frozenset(terms.items())
        if key in seen:
            continue
        seen.add(key)
        add(terms, lead, p.degree())

    while heap:
        pair = heappop(heap)
        if pair not in live:
            continue
        live.remove(pair)
        sugar, lcm, i, j = pair
        # S = (a_j/g) * lcm/lead_i * basis[i] - (a_i/g) * lcm/lead_j *
        # basis[j], with a = lcs and g = gcd(a_i, a_j) (1 over GF(p)): the
        # lead terms cancel, so it is built from the tails; a term that
        # cancels here is skipped when `_divide` pops it.
        g = gcd(lcs[i], lcs[j])
        fi, fj = lcs[j] // g, lcs[i] // g
        s = {}
        t = lcm - leads[i]
        for e, c in tails[i]:
            e += t
            if e & guard:
                raise _Overflow
            s[e] = c * fi
        t = lcm - leads[j]
        for e, c in tails[j]:
            e += t
            if e & guard:
                raise _Overflow
            s[e] = s.get(e, 0) - c * fj
        rem, sugar, _ = _divide(pk, field.char, s, leads, lcs, tails, None,
                                sugar, sugars, divisors)
        if not rem:
            continue
        lead = next(iter(rem))
        add(_normalize(field, rem, lead)[0], lead, sugar)

    return _reduce_basis(pk, ring, basis, leads, lcs, tails)


def _reduce_basis(pk, ring, basis, leads, lcs, tails):
    """Minimize and inter-reduce a packed Groebner basis in kernel form.

    Returns the monic polynomials, sorted ascending by lead monomial.
    """
    field = ring.field
    guard = pk.guard
    minimal: list[int] = []
    for k in sorted(range(len(basis)), key=leads.__getitem__):
        lm = leads[k]
        if any(not (lm - leads[h]) & guard for h in minimal):
            continue
        minimal.append(k)
    reduced = []
    for pos, k in enumerate(minimal):
        others = minimal[:pos] + minimal[pos + 1:]
        rem, _, _ = _divide(
            pk, field.char, dict(basis[k]), [leads[h] for h in others],
            [lcs[h] for h in others], [tails[h] for h in others],
            None, 0, None, {},
        )
        lc = field.coerce(rem[leads[k]])
        reduced.append(_unpack(pk, ring, rem, field.inv(lc)))
    return reduced


class GroebnerBasis:
    """A reduced Groebner basis with membership and witness queries."""

    def __init__(self, gens):
        gens = list(gens)
        if not gens:
            raise ValueError("GroebnerBasis needs at least one generator")
        self.gens = gens
        self.basis = buchberger(gens)
        self.ring = self.basis[0].ring if self.basis else gens[0].ring

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __getitem__(self, i):
        return self.basis[i]

    def normal_form(self, p, with_quotients=False):
        return normal_form(self.ring.convert(p), self.basis, with_quotients)

    def contains(self, p) -> bool:
        return self.normal_form(p).is_zero()

    def membership_witness(self, p):
        """Quotients of p by the basis, or None when p is not in the ideal."""
        r, qs = self.normal_form(p, with_quotients=True)
        if not r.is_zero():
            return None
        return qs

    def __eq__(self, other):
        if isinstance(other, GroebnerBasis):
            return self.ring == other.ring and self.basis == other.basis
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(self.basis)))

    def __repr__(self):
        return f"GroebnerBasis({len(self.basis)} elements over {self.ring!r})"
