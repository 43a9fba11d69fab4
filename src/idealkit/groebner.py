"""Buchberger's algorithm with sugar selection and Gebauer-Moeller pruning.

The module computes unique reduced Groebner bases: elements are monic,
no lead monomial divides another, no term of any element is divisible by the
lead monomial of another, and the basis is sorted ascending by lead monomial.
Division is deterministic (lowest-index divisor first) and can record the
quotients, which is what ideal-membership witnesses are built from.
"""

from __future__ import annotations

import heapq

from .poly import (
    Polynomial,
    monomial_deg,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


def _neg_key(key):
    return tuple(-v for v in key)


def _divide_terms(ring, terms, gens, leads, record, sugar, sugars):
    """Core division loop over a mutable term dict.

    leads is [(lm, lc_inv)] per generator. When record is not None it
    collects quotient terms per generator index. When sugars is given the
    running sugar degree is threaded through and returned alongside.
    """
    field = ring.field
    order_key = ring.order.key
    remainder: dict = {}
    heap = [(_neg_key(order_key(e)), e) for e in terms]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = terms.get(m)
        if c is None:
            continue
        for i, (lm, lc_inv) in enumerate(leads):
            if monomial_divides(lm, m):
                t = monomial_div(m, lm)
                scale = field.mul(c, lc_inv)
                if record is not None:
                    record[i][t] = field.add(
                        record[i].get(t, field.zero), scale
                    )
                if sugars is not None:
                    s = sugars[i] + monomial_deg(t)
                    if s > sugar:
                        sugar = s
                del terms[m]
                for e, gc in gens[i].terms.items():
                    e2 = monomial_mul(e, t)
                    prev = terms.get(e2)
                    if prev is None:
                        if e2 != m:
                            terms[e2] = field.neg(field.mul(scale, gc))
                            heapq.heappush(heap, (_neg_key(order_key(e2)), e2))
                    else:
                        s2 = field.sub(prev, field.mul(scale, gc))
                        if s2 == field.zero:
                            del terms[e2]
                        else:
                            terms[e2] = s2
                break
        else:
            remainder[m] = c
            del terms[m]
    return remainder, sugar


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
    leads = [(g.lead_monomial(), field.inv(g.lead_coeff())) for g in gens]
    record = [dict() for _ in gens] if with_quotients else None
    rem, _ = _divide_terms(ring, dict(p.terms), gens, leads, record, 0, None)
    r = Polynomial(ring, rem)
    if not with_quotients:
        return r
    return r, [Polynomial(ring, q) for q in record]


def s_polynomial(f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = monomial_lcm(lf, lg)
    field = f.ring.field
    a = f.term_mul(field.inv(f.lead_coeff()), monomial_div(lcm, lf))
    b = g.term_mul(field.inv(g.lead_coeff()), monomial_div(lcm, lg))
    return a - b


class _Pair:
    __slots__ = ("i", "j", "lcm", "sugar")

    def __init__(self, i, j, lcm, sugar):
        self.i = i
        self.j = j
        self.lcm = lcm
        self.sugar = sugar


def _make_pair(i, j, basis, sugars):
    li = basis[i].lead_monomial()
    lj = basis[j].lead_monomial()
    lcm = monomial_lcm(li, lj)
    sugar = max(
        sugars[i] + monomial_deg(lcm) - monomial_deg(li),
        sugars[j] + monomial_deg(lcm) - monomial_deg(lj),
    )
    return _Pair(i, j, lcm, sugar)


def _update_pairs(pairs, basis, sugars, t):
    """Gebauer-Moeller update after appending basis[t].

    Prunes new pairs by the chain criterion among themselves, drops
    coprime-lead pairs (product criterion), and filters old pairs whose lcm
    is strictly refined by the new element.
    """
    lt = basis[t].lead_monomial()
    fresh = [_make_pair(i, t, basis, sugars) for i in range(t)]

    kept_new = []
    for a, pa in enumerate(fresh):
        coprime = monomial_mul(basis[pa.i].lead_monomial(), lt) == pa.lcm
        if coprime:
            kept_new.append(pa)
            continue
        dominated = False
        for b, pb in enumerate(fresh):
            if b == a or pb.lcm == pa.lcm and b > a:
                continue
            if monomial_divides(pb.lcm, pa.lcm) and pb.lcm != pa.lcm:
                dominated = True
                break
            if pb.lcm == pa.lcm and b < a:
                dominated = True
                break
        if not dominated:
            kept_new.append(pa)

    survivors = []
    for p in kept_new:
        if monomial_mul(basis[p.i].lead_monomial(), lt) == p.lcm:
            continue
        survivors.append(p)

    kept_old = []
    for p in pairs:
        li = basis[p.i].lead_monomial()
        lj = basis[p.j].lead_monomial()
        if (
            monomial_divides(lt, p.lcm)
            and monomial_lcm(li, lt) != p.lcm
            and monomial_lcm(lj, lt) != p.lcm
        ):
            continue
        kept_old.append(p)
    kept_old.extend(survivors)
    return kept_old


def buchberger(polys, order=None):
    """Reduced Groebner basis of the given polynomials.

    Uses sugar-degree pair selection with Gebauer-Moeller pruning, then
    minimizes and inter-reduces. An optional order recomputes in the same
    ring under that order. Returns a list sorted ascending by lead monomial.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    if order is not None and order != ring.order:
        ring = ring.change_order(order)
        polys = [ring.convert(p) for p in polys]
    for p in polys:
        if p.ring != ring:
            raise ValueError("generators must share one ring")
    field = ring.field
    order_key = ring.order.key

    basis: list[Polynomial] = []
    sugars: list[int] = []
    pairs: list[_Pair] = []
    seen = set()
    for p in polys:
        m = p.monic()
        key = frozenset(m.terms.items())
        if key in seen:
            continue
        seen.add(key)
        basis.append(m)
        sugars.append(m.degree())
        pairs = _update_pairs(pairs, basis, sugars, len(basis) - 1)

    heap = [
        (p.sugar, order_key(p.lcm), p.i, p.j, p) for p in pairs
    ]
    heapq.heapify(heap)
    alive = {(p.i, p.j) for p in pairs}

    while heap:
        sugar, _, i, j, pair = heapq.heappop(heap)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        s = s_polynomial(basis[i], basis[j])
        if s.is_zero():
            continue
        leads = [(g.lead_monomial(), field.one) for g in basis]
        rem, sugar = _divide_terms(
            ring, dict(s.terms), basis, leads, None, pair.sugar, sugars
        )
        if not rem:
            continue
        h = Polynomial(ring, rem).monic()
        basis.append(h)
        sugars.append(sugar)
        new_pairs = _update_pairs(
            [p for p in pairs if (p.i, p.j) in alive], basis, sugars, len(basis) - 1
        )
        added = []
        next_alive = set()
        for p in new_pairs:
            next_alive.add((p.i, p.j))
            if (p.i, p.j) not in alive:
                added.append(p)
        alive = next_alive
        pairs = new_pairs
        for p in added:
            heapq.heappush(heap, (p.sugar, order_key(p.lcm), p.i, p.j, p))

    return _reduce_basis(basis)


def _reduce_basis(basis):
    """Minimize and inter-reduce a Groebner basis; monic, sorted ascending."""
    ring = basis[0].ring
    order_key = ring.order.key
    by_lm = sorted(basis, key=lambda g: order_key(g.lead_monomial()))
    minimal: list[Polynomial] = []
    for g in by_lm:
        lm = g.lead_monomial()
        if any(monomial_divides(h.lead_monomial(), lm) for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others) if others else g
        reduced.append(r.monic())
    reduced.sort(key=lambda g: order_key(g.lead_monomial()))
    return reduced


class GroebnerBasis:
    """A reduced Groebner basis with membership and witness queries."""

    def __init__(self, gens, order=None):
        gens = list(gens)
        if not gens:
            raise ValueError("GroebnerBasis needs at least one generator")
        self.gens = gens
        self.basis = buchberger(gens, order=order)
        if self.basis:
            self.ring = self.basis[0].ring
        else:
            ring = gens[0].ring
            self.ring = ring if order is None else ring.change_order(order)

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
