"""Buchberger's algorithm as one signature-based loop.

The module computes unique reduced Groebner bases: elements are monic,
no lead monomial divides another, no term of any element is divisible by the
lead monomial of another, and the basis is sorted ascending by lead monomial.
Division is deterministic (lowest-index divisor first) and can return the
quotients, which is what ideal-membership witnesses are built from.
`is_groebner` checks a basis with `s_polynomial` and `normal_form` alone.

One driver, `_basis`, builds every Groebner basis, whatever the order and
the number of inputs: the bases of `buchberger`, the colon step of
`colon_basis`, and the eliminations of `idealops`. It packs the inputs,
puts them in kernel form (`_kernel_inputs`: normalized and deduplicated),
runs one signature loop and hands the loop's elements to one minimization
and inter-reduction (`_reduce_basis`), which unpacks the result into the
caller's ring: for an elimination, the ring without the eliminated front
variables, whose elements it alone reduces. The loop is signature-based,
and the reason is measured against the Gebauer-Moeller loop that it
replaced.
Over GF(32003) that loop made 343 S-pair reductions on cyclic-6 and 176
on katsura-7, 245 and 140 of them to zero; the signature loop makes 218
and 54 reductions (J-pairs, and inputs that a lead divides), 28 and 11 of
them to zero, in about half the time. On the lex ideal of
`tests/golden/found_lex.ikt` over Q the Gebauer-Moeller loop took 163 s
and the signature loop takes 0.02 s (2-core Xeon, CPython 3.11.7). Block
orders may cost more: the toric kernel of the corpus has a signature
basis of 58 elements against 32, and the block and lex bases of one
benchmark `corpus` pass took 1.29 times as long.

The signature loop follows Faugere (F5, ISSAC 2002) and Eder and Faugere
(JSC 2017). Inputs are sorted by lead and f_i has index i. The signature
u*e_i is one int, ((u + lead(f_i)) << b) | i, with u a packed monomial
and b the bit length of the number of inputs: comparing ints is the
Schreyer order (u*lead(f_i) first, then the index), and multiplying by a
monomial t adds t << b. Element k keeps its signature S[k] and its ratio
D[k] = S[k] - (lead_k << b). A term m may be reduced by element j only
when m/lead_j times j has a smaller signature than the polynomial being
reduced, that is D[j] < sig - (m << b) (regular reduction). J-pairs, t
times the element whose side of an S-pair has the larger signature, wait
in a heap by signature, one per signature: the one from the latest
element. A J-pair is skipped when a syzygy signature divides its
signature (the signatures of reductions to zero, and the Koszul syzygy of
each new element with each earlier one), or when an element added later
than its own has a signature that divides it (F5's rewrite criterion).
The syzygy signatures of each index are kept minimal, an antichain: a new
one that a kept one divides is not recorded, and one that is recorded
drops the kept ones that it divides. Whether some kept one divides a
signature is the same question as before, and fewer are scanned: on a
seed-1 `corpus` pass, 21,306 pop-time steps instead of 72,296.
There is no singular criterion: an element that is top-reducible at its
own signature is kept. With that discard next to the latest-element
rewrite rule, the loop returned a wrong basis on 12 of 3,000 seeded random
ideals (`PITFALL` in `tests/test_groebner.py` lost y); either rule alone
was right on all of them. The loop stops at the first nonzero constant
remainder, since the reduced basis is then [1]. The same loop, run on one
input f above a Groebner basis of I, is the colon step of `colon_basis`,
which gives I : f without an elimination variable. There each element
carries its cofactor with respect to f inside its own terms, as tagged
terms: a packed monomial minus a multiple of a tag above every packed
monomial (see `_Packing`). They sort below every monomial term and no
division reduces them, so the shifts, reductions and normalizations that
make an element make its cofactor in the same pass, and a reduction to zero
leaves exactly the cofactor. The quotients of `normal_form` are tagged terms
of the same kind, one tag per divisor, and so is the quotient of each exact
division by a Bareiss pivot in `matrix` (`_exact_quotient`). One function,
`_kernel_inputs`, puts every divisor that enters the kernel from outside in
kernel form, tagged or not: those of `normal_form`, the basis below the
colon step, and each Bareiss pivot; no other module reads a tag.

Division and the Buchberger loop run on packed monomials (Monagan and
Pearce, JSC 2011; Roune and Stillman, ISSAC 2012). A packed monomial is
one int: each exponent has a field of `width` bits whose top bit is a
guard bit, and the order key sits above the exponent fields. Order keys
are additive (see `orders`), so the product of two monomials is the sum of
their ints, comparing ints compares monomials in the ring's order, and a
divides b exactly when `(b - a) & guard` is zero. A product that sets a
guard bit has overflowed its field: the whole call then starts again with
fields twice as wide (8, 16, 32, ... bits), so no result depends on the
width. Terms are checked where they are consumed, not where they are
made: `_divide` tests each term as it pops it, before its zero test, and
every term that enters a division, as a shifted element of the signature
loop or as a tail update, is popped before the division returns. So an
overflowed product that cancels still restarts the call, and the check
costs one test per popped term instead of one per tail update (on a
seed-1 `gb` pass over Q, 22,748 against 256,929). `_basis` and
`normal_form` pack their input once and unpack their result once;
`Polynomial` and every public signature here keep exponent tuples. Every
width is a whole number of bytes, so the raw exponent fields of a monomial
(the J-pair multiplier lcm / lead_j of the signature loop is computed so)
pack by one dot product of their big-endian bytes with per-byte weights
(`_Packing.weights`), and at width 8 a monomial unpacks from its bytes.

Each division keeps a memo of divisor queries: it maps a packed monomial
to i when leads[i] is the lowest-index lead that divides it, and to ~k when
none of leads[:k] does, so a later query takes i at once or resumes the
scan at k. The signature loop only appends to its leads, so an entry
stays true for the rest of the loop, and one memo serves all its
reductions at one width; a restart at a wider packing builds a new one.
The final inter-reduction is one ascending sweep with one memo of its own:
each minimal element's tail is divided by the elements already reduced,
whose leads also only grow. `normal_form` starts from an empty memo. When
the lowest-index divisor fails the signature loop's regularity test, the
scan goes on past it without the memo. A signature monomial that
overflows starts the call again at a wider packing, as a term does.

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
divides its integer remainder, whose tagged terms are the quotients, by the
product of the scale factors, so both fields give the same results as monic
division over the field. Unpacking over Q multiplies each integer by the
scale and builds a `Fraction` only for a product that the scale's
denominator does not divide, so every coefficient leaves in the
convention of `fields`: an int when integral.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd, lcm
from operator import itemgetter, lshift, mul, neg

from .poly import Polynomial, monomial_div, monomial_lcm


class _Overflow(Exception):
    """A packed exponent outgrew its field; retry with wider fields."""


class _Packing:
    """Packed-int monomials of one ring at one field width."""

    def __init__(self, ring, width):
        n = ring.nvars
        self.max_exp = (1 << (width - 1)) - 1
        self.field_mask = (1 << width) - 1
        self.shifts = list(range(width * (n - 1), -1, -width))
        self.key_shift = key_shift = width * n
        self.fields = (1 << key_shift) - 1
        # The top bit of every field.
        self.guard = self.fields // self.field_mask << (width - 1)
        # Key component k is a linear form in the exponents, so over
        # exponents in [0, max_exp] it spans at most sum_i |c_ik| * max_exp.
        # Written as digits in a base above that span, the keys compare as
        # ints exactly as they compare as tuples.
        key = ring.order.key
        cols = [key((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]
        span = max(map(sum, zip(*[map(abs, col) for col in cols])), default=0)
        bits = (span * self.max_exp).bit_length()
        self.units = [(sum(map(lshift, reversed(col), count(0, bits)))
                       << key_shift) | (1 << shift)
                      for col, shift in zip(cols, self.shifts)]
        # The byte weights: byte j of the exponent fields, read big-endian,
        # weighs the unit of its field times its place in the field, so the
        # dot product of the bytes of raw fields with them packs the
        # exponents that the fields hold.
        self.nbytes = key_shift // 8
        self.weights = [u << 8 * j for u in self.units
                        for j in range(width // 8 - 1, -1, -1)]
        # A nonzero monomial's key is lexicographically positive, so every
        # unit is positive and the monomial of all max_exp exponents is the
        # largest packed int. Cofactors are tagged terms: input i of a
        # division (`normal_form`) or of the colon step carries -1 at
        # ~i * tag, so whatever is built from it by shifts and reductions
        # carries its cofactor of input i, up to sign, as terms m + ~i * tag
        # (the signs are in `normal_form` and `colon_basis`). A tagged
        # term e names input ~(e // tag) and monomial e % tag. It sorts below
        # every monomial, and its low bits are m's, so shifts, guard checks
        # and unpacking act on it as on m.
        self.tag = 1 << (sum(self.units) * self.max_exp).bit_length()

    def pack(self, exps):
        if exps and max(exps) > self.max_exp:
            raise _Overflow
        return sum(map(mul, exps, self.units))

    def unpack(self, m):
        if self.field_mask == 0xFF:  # one byte per field
            return tuple((m & self.fields).to_bytes(self.nbytes, "big"))
        return tuple([m >> s & self.field_mask for s in self.shifts])

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
    over GF(p) it is monic. k is a field element, in the convention of
    `fields`. Terms whose coefficients are all ints, as every remainder of
    the kernel is, are returned as they are when k is 1.
    """
    p = field.char
    if p:
        k = field.inv(terms[lead])
        if k == 1:
            return terms, k
        return {m: c * k % p for m, c in terms.items()}, k
    den = 1
    if Fraction in map(type, terms.values()):
        den = lcm(*[c.denominator for c in terms.values()])
        terms = {m: int(c * den) for m, c in terms.items()}
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return terms, den // g if not den % g else Fraction(den, g)


def _unpack(pk, ring, terms, k):
    """The polynomial of `ring` with the packed kernel terms times the
    field element k.

    Its exponents are the last ring.nvars fields: all of them when ring is
    the packing's own, the back block of an elimination otherwise (see
    `_reduce_basis`). The terms must be in descending order, as every
    packed dict the kernel returns is: packed ints compare as the ring's
    order compares monomials, and a block order restricts to the order of
    its back block.
    """
    front = len(pk.shifts) - ring.nvars
    unpack = pk.unpack if not front else lambda m: pk.unpack(m)[front:]
    p = ring.field.char
    if p:
        return Polynomial._descending(ring, {unpack(m): c * k % p
                                             for m, c in terms.items()})
    num, den = k.numerator, k.denominator
    out = {}
    for m, c in terms.items():
        c *= num
        out[unpack(m)] = Fraction(c, den) if c % den else c // den
    return Polynomial._descending(ring, out)


def _divide(pk, p, terms, leads, lcs, tails, memo, regular=None):
    """Divide the packed term dict `terms` (consumed) by packed divisors.

    p is the field's characteristic. Divisor i has lead monomial leads[i],
    lead coefficient lcs[i] (1 over GF(p)) and the terms below its lead in
    tails[i]. Working terms are unreduced ints: the largest one is popped,
    raises `_Overflow` when it has a guard bit set, then is reduced mod p
    when p is set and skipped when zero, so a term that cancels stays in
    `terms` as an int that is 0 (mod p). Every term of `terms`, given or
    added by a tail update, is popped before the call returns, so neither
    the caller nor a tail update checks for overflow. The popped c*m
    goes to the lowest-index divisor whose lead divides it; over Q, with
    a = lcs[i] and g = gcd(a, c), the working terms and the remainder are
    first multiplied by a/g. Then (c/g) * m/lead_i times divisor i is
    subtracted, tagged terms and all. memo maps a packed monomial to the
    index of its lowest-index dividing lead, or to ~k when no lead in
    leads[:k] divides it; it is read and extended here and stays valid for
    later calls whose leads extend these. A popped term below 0 is a tagged
    cofactor term (see `_Packing`) and goes to the remainder unreduced,
    after every monomial term. When regular is (sig, b, ratios) the
    division is the signature loop's regular reduction: divisor i may take
    c*m only when m/lead_i times it has a signature below sig, that is
    ratios[i] < sig - (m << b), so the popped term goes to the lowest-index
    such divisor, or to the remainder. Returns (remainder, u), with u the
    product of the multipliers (1 over GF(p)): u * dividend == remainder +
    sum(q_i * divisor_i) for some quotients q_i. The remainder lists its
    terms in descending order; its coefficients lie in range(p) over GF(p).
    """
    guard = pk.guard
    get = terms.get
    pop = terms.pop
    divisor = memo.get
    n = len(leads)
    remainder: dict = {}
    u = 1
    if regular is not None:
        sig, b, ratios = regular
    heap = list(map(neg, terms))
    heapify(heap)
    while heap:
        m = -heappop(heap)
        if m & guard:
            raise _Overflow
        c = pop(m)
        if p:
            c %= p
        if not c:
            continue
        i = divisor(m, -1)
        if i < 0:
            if m < 0:
                remainder[m] = c
                continue
            for i in range(~i, n):
                if not (m - leads[i]) & guard:
                    break
            else:
                memo[m] = ~n
                remainder[m] = c
                continue
            memo[m] = i
        if regular is not None:
            bound = sig - (m << b)
            if ratios[i] >= bound:
                i = next((j for j in range(i + 1, n) if ratios[j] < bound
                          and not (m - leads[j]) & guard), -1)
                if i < 0:
                    remainder[m] = c
                    continue
        t = m - leads[i]
        a = lcs[i]
        if a != 1:
            g = gcd(a, c)
            c //= g
            f = a // g
            if f != 1:
                u *= f
                for part in (terms, remainder):
                    for e, v in part.items():
                        part[e] = v * f
        for e, gc in tails[i]:
            e += t
            prev = get(e)
            if prev is None:
                terms[e] = -c * gc
                heappush(heap, -e)
            else:
                terms[e] = prev - c * gc
    return remainder, u


def normal_form(p, gens, with_quotients=False):
    """Fully reduce p modulo gens; optionally return division quotients.

    Returns r, or (r, [q_0, ..., q_{n-1}]) with p == sum(q_i * gens[i]) + r
    and no term of r divisible by any lead monomial of gens. Divisor choice
    is lowest index first, so results are reproducible. Every divisor, of one
    term or more, goes through one run of the kernel's division, built by
    `_kernel_inputs`. Without quotients a divisor equal to an earlier one up
    to a scalar is dropped there: the earlier one always divides first, so
    the remainder is the same. For the quotients, gens[i] enters the
    division with its tagged term (see `_Packing`), so
    p - sum(q_i * (gens[i] - [input i])) == r + sum(q_i * [input i]): the
    remainder's tagged terms of input i are q_i, scaled as r is. Tagged
    divisors are never equal, so each input gets its quotient.
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
        divisors = _divisors(_kernel_inputs(
            pk, field, [pk.pack_terms(g) for g in gens], with_quotients))
        terms, k = pk.pack_terms(p), field.one
        if terms:
            terms, k = _normalize(field, terms, max(terms))
        rem, u = _divide(pk, field.char, terms, *divisors, {})
        # rem == u * k * (r + sum(q_i * [input i])), and w == 1 / (u * k).
        w = field.inv(u * k)
        if not with_quotients:
            return _unpack(pk, ring, rem, w)
        tag = pk.tag
        # A monomial e has e // tag == 0, so it lands in parts[-1], the
        # remainder; the split keeps each part in descending order.
        parts = [{} for _ in range(len(gens) + 1)]
        for e, c in rem.items():
            parts[~(e // tag)][e % tag] = c
        *qs, r = [_unpack(pk, ring, part, w) for part in parts]
        return r, qs

    return _widening(ring, run)


def s_polynomial(f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = monomial_lcm(lf, lg)
    ring, inv = f.ring, f.ring.field.inv
    a = f * ring.monomial(monomial_div(lcm, lf), inv(f.lead_coeff()))
    b = g * ring.monomial(monomial_div(lcm, lg), inv(g.lead_coeff()))
    return a - b


def is_groebner(basis):
    """True when every S-polynomial of the basis reduces to zero.

    The check uses only `s_polynomial` and `normal_form`, so it does not
    depend on the loop that built the basis. Elements must be nonzero.
    """
    basis = list(basis)
    return all(normal_form(s_polynomial(f, g), basis).is_zero()
               for i, f in enumerate(basis) for g in basis[i + 1:])


def buchberger(polys):
    """Reduced Groebner basis of the given polynomials.

    Runs the signature loop on the distinct inputs, then minimizes and
    inter-reduces. Returns a list sorted ascending by lead monomial.
    """
    return _basis(polys)


def colon_basis(basis, f):
    """Reduced Groebner basis of (I : f) from a Groebner basis of I.

    basis is a Groebner basis G of I and f a nonzero polynomial of its
    ring. The colon step is F5's incremental step with the top component
    kept (Faugere, ISSAC 2002; Gao, Volny and Wang, Math. Comp. 2016): one
    run of `_signature_loop` on f alone, on top of G. Signatures are
    position over term with e_f on top: each polynomial h of the run keeps
    its cofactor a, h = a*f + c with c in I, and its signature is
    lead(a)*e_f. The elements of G have cofactor 0 and sit below every
    signature, so they may always reduce. A regular reduction subtracts q*h
    of elements of smaller signature, so lead(a) is kept and the new
    cofactor is u*t*a - sum(q*a_q). f is input 0 of the tagged-term
    encoding (see `_Packing`), so each h carries -a as tagged terms below its
    own, which no division reduces, and the division of t*h computes that
    sum with h's. Each reduction to zero at t*e_f leaves only tagged terms,
    -a for an a in I : f with lead t; normalized, they form A, and the
    result is the reduced basis of G and A (`_reduce_basis`). A constant a
    ends the step with I : f = (1).

    Proof that G and A are a Groebner basis of I : f. Let L be the monomial
    ideal of the leads of G and A, and T in LT(I : f): we show T in L. Then
    L = LT(I : f), since G and A lie in I : f.
    - The syzygies of (G, f) are the module elements z with image 0, and
      their e_f parts are exactly the elements of I : f. So T*e_f is the
      signature of some syzygy z.
    - Every syzygy signature that the loop records lies in L. A reduction
      to zero records the lead of its a. The Koszul update of the first
      element, the remainder of f at signature e_f, with each g in G
      records lead(g)*e_f. Two elements h_j and h_n of the run, as module
      elements m_j and m_n, give the Koszul syzygy h_j*m_n - h_n*m_j, whose
      e_f part c_j*a_n - c_n*a_j lies in I: its signature lead(h_j)*sig(h_n)
      lies in LT(I), whether recorded or not.
    - When the loop ends, its elements and G are a signature Groebner
      basis: every module element s whose image is nonzero has a multiple
      w*h of an element, of G or of the run, with the same lead and a
      signature at most sig(s). This is the theorem that `buchberger` rests
      on (Eder and Faugere, JSC 2017), in the module over G and f.
    - Let beta be the element added last whose signature divides T (the
      input f has signature e_f), and s = (T/sig(beta))*beta. The image of
      s is nonzero. s minus a multiple of z has a smaller signature and the
      same image, so a multiple w*gamma, of signature below T, has the lead
      of s. The ratio signature/lead of gamma is below beta's, so the loop
      queued their J-pair, at T' = (lcm/lead(beta))*sig(beta), a divisor
      of T. Unless the leads are coprime; then T' is their Koszul
      signature, in L.
    - The J-pair at T' was skipped because a recorded syzygy signature
      divides it, which is in L; or it was skipped or replaced because an
      element added after beta has a signature dividing T' (the rewrite
      criterion, one J-pair per signature), against the choice of beta; or
      it was reduced, to zero, which puts T' in L, or to a new element with
      signature T', added after beta, against the choice of beta again.
    So T lies in L in every case. The proof is needed: a final `buchberger`
    on G and A could not add an a that the step had missed.
    """
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    return _basis([f], below=list(basis))


def _basis(polys, back=None, below=None):
    """The reduced Groebner basis of polys, as polynomials of `back`.

    The nonzero polys share one ring R, and back defaults to R. Otherwise R
    is back with a block of front variables that the order ranks first, and
    the result is the reduced basis of the elimination ideal, moved into
    back (`_reduce_basis`). With below, a Groebner basis of an ideal I of R,
    and polys == [f], the result is the colon step of `colon_basis`: the
    reduced basis of I : f, or of its front-free part.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    if any(p.ring != ring for p in [*polys, *(below or ())]):
        raise ValueError("generators must share one ring")
    field = ring.field
    colon = below is not None

    def run(pk):
        # For the colon step, f is input 0 of the tagged-term encoding (see
        # `_Packing`).
        gens = _kernel_inputs(pk, field, [pk.pack_terms(p) for p in polys],
                              colon)
        packed = None
        if colon:
            packed = _kernel_inputs(pk, field,
                                    [pk.pack_terms(g) for g in below])
        return _reduce_basis(pk, back or ring,
                             _signature_loop(pk, field, gens, packed))

    return _widening(ring, run)


def _kernel_inputs(pk, field, packed, tagged=False):
    """The distinct packed term dicts as kernel-form (terms, lead) pairs.

    With tagged, input i first gets the tagged term -1 at ~i * tag (see
    `_Packing`), in a copy. Terms are then in the form `_normalize` gives,
    so inputs that are scalar multiples of one another become equal, and
    only the first is kept; tagged inputs never compare equal. The inputs
    of the signature loop and the divisors of `normal_form`, of the colon
    step's basis and of each Bareiss pivot (`matrix`) are all built here.
    """
    gens, kept, tag = [], {}, pk.tag
    for i, terms in enumerate(packed):
        lead = max(terms)
        if tagged:
            terms = {**terms, ~i * tag: -1}
        terms, _ = _normalize(field, terms, lead)
        # Equal inputs share a lead, so only those with this lead are
        # compared: hashing every input's terms cost about 1% of `corpus`.
        same = kept.setdefault(lead, [])
        if terms not in same:
            same.append(terms)
            gens.append((terms, lead))
    return gens


def _divisors(gens):
    """The lists (leads, lcs, tails) of `_divide` for kernel-form pairs."""
    return ([lead for _, lead in gens], [terms[lead] for terms, lead in gens],
            [_tail(terms, lead) for terms, lead in gens])


def _exact_quotient(pk, p, terms, divisor, memo):
    """terms (consumed) over one tagged divisor, both packed; exact or raises.

    divisor is the `_divisors` of one tagged `_kernel_inputs` pair, so the
    remainder's tagged terms are u times the quotient, u the multiplier of
    the division (see `normal_form`). A monomial term left in the
    remainder, or u != 1 (over Q: the quotient is not in Z[x]), raises
    `ArithmeticError`.
    """
    rem, u = _divide(pk, p, terms, *divisor, memo)
    if u != 1 or next(iter(rem), -1) >= 0:
        raise ArithmeticError("inexact polynomial division")
    tag = pk.tag
    return {e + tag: c for e, c in rem.items()}


def _signature_loop(pk, field, gens, below=None):
    """A Groebner basis of gens by a signature-based Buchberger loop.

    gens and the result are kernel-form (packed terms, packed lead) pairs,
    as `_kernel_inputs` gives them, for `_reduce_basis`. The result is the
    basis [1] at the first nonzero constant remainder. The encoding of
    signatures and the criteria are in the module docstring. With `below`,
    the kernel-form elements of a Groebner basis G of I, the loop is the
    colon step of `colon_basis`: gens is [f], input 0 of the tagged-term
    encoding (see `_Packing`), so every element of the run carries minus its
    cofactor a as tagged terms, which every shift, reduction and
    normalization of the element applies to as well. The loop returns G
    and the normalized cofactors a of its reductions to zero (a*f in I), or
    the basis [1] when a is a constant, that is when f lies in I.
    """
    p, tag = field.char, pk.tag
    guard, fields, low = pk.guard, pk.fields, pk.max_exp.bit_length()
    nbytes, weights = pk.nbytes, pk.weights
    gens = sorted(gens, key=itemgetter(1))
    b = len(gens).bit_length()
    index_mask = (1 << b) - 1
    colon = below is not None

    # Element k: packed terms basis[k] in the form `_normalize` gives,
    # packed lead leads[k], lead coefficient lcs[k], tail tails[k],
    # signature sigs[k] and ratios[k] = sigs[k] - (leads[k] << b).
    # owned[i] lists (k, packed signature monomial) of the elements whose
    # signature has index i, in the order they were added; syz[i] the
    # minimal monomials of known syzygy signatures with index i, none
    # dividing another. `queue` maps the signature of each waiting J-pair
    # t * element k to (k, t); input i waits as (~i, 0). `steps` maps the
    # exponent fields of a packed monomial to the whole packed monomial.
    # `divisors` is the divisor memo of `_divide` for every reduction of
    # this run: `leads` only grows, so its entries stay true.
    # The elements of `below` come first, with no cofactor and ratio -1. A
    # term that a reduction meets is at most the lead of its polynomial,
    # whose ratio is at least 0, so they may always reduce it; and they
    # never give the larger side of a J-pair.
    below = below or []
    basis = [terms for terms, _ in below]
    leads, lcs, tails = _divisors(below)
    sigs: list = [None] * len(below)
    ratios = [-1] * len(below)
    zeros: list[tuple] = []
    owned: list[list] = [[] for _ in gens]
    syz: list[list] = [[] for _ in gens]
    queue = {(lead << b) | i: (~i, 0) for i, (_, lead) in enumerate(gens)}
    heap = list(queue)
    heapify(heap)
    divisors: dict[int, int] = {}
    steps: dict[int, int] = {}

    while heap:
        sig = heappop(heap)
        k, t = queue.pop(sig)
        i, m = sig & index_mask, sig >> b
        # Skip the J-pair when a syzygy signature divides its signature, or
        # the signature of an element added after element k does.
        for s in syz[i]:
            if not (m - s) & guard:
                break
        else:
            for h, s in owned[i]:
                if h > k and not (m - s) & guard:
                    break
            else:
                s = None
        if s is not None:
            continue
        if k >= 0:
            # `_divide` checks each shifted term for overflow as it pops it.
            terms = {e + t: c for e, c in basis[k].items()}
        else:
            # An input that no lead divides is kept as `_kernel_inputs`
            # made it: there is nothing to reduce or normalize.
            rem, lead = gens[~k]
            terms = None
            if any(not (e - l) & guard for e in rem for l in leads):
                terms = dict(rem)
        if terms is not None:
            rem, _ = _divide(pk, p, terms, leads, lcs, tails, divisors,
                             regular=(sig, b, ratios))
            lead = next(iter(rem), -1)
            if lead < 0:
                # A reduction to zero. No entry of syz[i] divides m, or the
                # pair had been skipped; the entries that m divides go.
                monos = syz[i]
                monos[:] = [s for s in monos if (s - m) & guard]
                monos.append(m)
                if rem:
                    # The colon step: rem is the tagged cofactor -a alone.
                    lead += tag
                    if not lead:
                        return [({0: 1}, 0)]
                    a = {e + tag: c for e, c in rem.items()}
                    zeros.append((_normalize(field, a, lead)[0], lead))
                continue
            rem, _ = _normalize(field, rem, lead)
        if not lead and not colon:
            # A constant: the basis is [1], whose packed lead is 0.
            return [({0: 1}, 0)]
        n = len(basis)
        ratio = sig - (lead << b)
        top = (lead & fields) | guard
        for j in range(n):
            # The larger ratio picks both the larger side of the Koszul
            # syzygy of elements j and n and the side of their J-pair;
            # equal ratios give neither. When the leads are coprime the
            # J-pair's signature is the syzygy's, so it is not queued.
            rj = ratios[j]
            if rj == ratio:
                continue
            # Field by field, max(0, e_n - e_j) is lcm / lead_j: a guard
            # bit survives the subtraction where e_n >= e_j, and the mask
            # g - (g >> low) keeps the bits below the surviving ones.
            lj = leads[j]
            d = top - (lj & fields)
            g = d & guard
            d &= g - (g >> low)
            step = steps.get(d)
            if step is None:
                step = steps[d] = sum(map(mul, d.to_bytes(nbytes, "big"),
                                          weights))
            if ratio > rj:
                koszul, monos = m + lj, syz[i]
            else:
                sj = sigs[j]
                koszul, monos = (sj >> b) + lead, syz[sj & index_mask]
            if not koszul & guard:
                for s in monos:
                    if not (koszul - s) & guard:
                        break
                else:
                    monos[:] = [s for s in monos if (s - koszul) & guard]
                    monos.append(koszul)
            if step == lead:  # lcm / lead_j is lead: coprime leads
                continue
            # The J-pair: one per signature, from the latest element.
            lcm = lj + step
            if ratio > rj:
                psig, h, u = (lcm << b) + ratio, n, lcm - lead
            else:
                psig, h, u = (lcm << b) + rj, j, step
            if (psig >> b) & guard:
                raise _Overflow
            waiting = queue.get(psig)
            if waiting is None:
                heappush(heap, psig)
            elif waiting[0] > h:
                continue
            queue[psig] = h, u
        basis.append(rem)
        leads.append(lead)
        lcs.append(rem[lead])
        tails.append(_tail(rem, lead))
        sigs.append(sig)
        ratios.append(ratio)
        owned[i].append((n, m))

    return below + zeros if colon else list(zip(basis, leads))


def _reduce_basis(pk, back, elements):
    """Minimize and inter-reduce a packed Groebner basis in kernel form.

    elements are (packed terms, packed lead) pairs. One ascending sweep:
    each minimal element's tail is divided by the elements already reduced,
    and its lead coefficient, times the multiplier of that division, is put
    back in front. Tail terms lie below the lead, so no larger lead divides
    them, and the normal form modulo a Groebner basis is unique, so the
    result is the reduced basis. Returns the monic polynomials of `back`,
    sorted ascending by lead monomial.

    back is the packing's ring, or its last back.nvars variables under an
    order that ranks every monomial with one of the front variables before
    them above every monomial without, as a block order with the front block
    first does. An element whose lead has a front variable is dropped first.
    Then only front-free leads divide a front-free lead, and the tail of a
    front-free lead is front-free, so the result is exactly the front-free
    slice of the reduced basis: the reduced basis of the elimination ideal.
    """
    field = back.field
    guard = pk.guard
    front = len(pk.shifts) - back.nvars
    mask = sum(pk.field_mask << s for s in pk.shifts[:front])
    minimal: list[tuple] = []
    for terms, lead in sorted((e for e in elements if not e[1] & mask),
                              key=itemgetter(1)):
        if any(not (lead - h) & guard for _, h in minimal):
            continue
        minimal.append((terms, lead))
    # The elements reduced so far, in kernel form: the divisors of the next
    # tail. Their leads only grow, so one memo serves the whole sweep.
    rleads: list[int] = []
    rlcs: list[int] = []
    rtails: list[list] = []
    memo: dict[int, int] = {}
    reduced = []
    p = field.char
    for terms, lead in minimal:
        tail = {m: c for m, c in terms.items() if m != lead}
        rem, u = _divide(pk, p, tail, rleads, rlcs, rtails, memo)
        lc = terms[lead] * u
        # Over Q the element is made primitive again; over GF(p), lc is 1.
        if not p and (g := gcd(lc, *rem.values())) != 1:
            lc //= g
            rem = {m: c // g for m, c in rem.items()}
        rleads.append(lead)
        rlcs.append(lc)
        rtails.append(list(rem.items()))
        reduced.append(_unpack(pk, back, {lead: lc, **rem}, field.inv(lc)))
    return reduced
