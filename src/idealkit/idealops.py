"""Ideal-level operations built on Groebner bases.

Membership, equality, colon, product, intersection, elimination, ring-map
kernels, Rees ideals, Krull dimension of the quotient, colength, and
membership after localizing at the origin. The ambient regular local ring is
modeled by a polynomial ring: global identities are computed with Groebner
bases and local claims are decided through colon ideals and constant terms:
`locally_contains_at_origin` returns a unit u of the colon with u*f in I, or
None, and `Ideal.unit_at_origin` is the one place that looks for a unit at
the origin in a reduced basis. `Ideal` is the one object that caches a
reduced basis and answers membership. An `Ideal` keeps only its nonzero
generators: zeros are dropped when it is built, so `gens` is empty exactly
for the zero ideal.
Colon ideals come from one signature step on top of the reduced basis
(`groebner.colon_basis`); intersection, elimination, kernels and Rees ideals
eliminate front variables under a block order. Every basis comes from the
one driver `groebner._basis`. For an elimination, and for the colon step of
`Ideal.colon_ideal`, it minimizes and inter-reduces only the front-free
elements and returns them as polynomials of the ring without the front
variables.
"""

from __future__ import annotations

import math

from .groebner import _basis, buchberger, colon_basis, normal_form
from .matrix import PolyMatrix
from .orders import Block, DegRevLex, Lex
from .poly import Polynomial, Ring, monomial_divides


class Ideal:
    """An ideal given by its nonzero generators, with its cached reduced
    Groebner basis."""

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        conv = []
        for g in gens:
            g = ring.convert(g) if isinstance(g, Polynomial) else ring.const(g)
            if g.terms:
                conv.append(g)
        self.gens = tuple(conv)
        self._gb = None

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self):
        """Reduced Groebner basis as a list, cached; empty for the zero ideal."""
        if self._gb is None:
            self._gb = buchberger(self.gens)
        return self._gb

    def _element(self, f: Polynomial) -> Polynomial:
        """f in this ideal's ring, for a query about f.

        Unlike construction, a query does not coerce coefficients: a
        polynomial over another field raises ValueError, since its answer
        would be about another polynomial.
        """
        if f.ring.field != self.ring.field:
            raise ValueError(
                f"{f} has coefficients in {f.ring.field.name}, "
                f"not in {self.ring.field.name}")
        return self.ring.convert(f)

    def contains(self, f) -> bool:
        return normal_form(self._element(f), self.groebner()).is_zero()

    def membership_witness(self, f):
        """(quotients, basis) with f = sum q_i b_i, or None when f not in I."""
        f = self._element(f)
        gb = self.groebner()
        r, qs = normal_form(f, gb, with_quotients=True)
        if not r.is_zero():
            return None
        return qs, gb

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            return False
        return self.groebner() == other.groebner()

    def __eq__(self, other):
        if isinstance(other, Ideal):
            return self.equals(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(self.groebner())))

    def is_proper(self) -> bool:
        gb = self.groebner()
        return not (gb and gb[0].degree() == 0)

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise ValueError("ideal sum over mismatched rings")
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise ValueError("ideal product over mismatched rings")
        gens = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, gens)

    # -- colon / intersection / elimination ---------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J, by eliminating u from u*I + (1-u)*J."""
        if other.ring != self.ring:
            raise ValueError("intersection over mismatched rings")
        return _eliminate_front(("@u",), self.ring, lambda ext: (
            [ext.var(0) * ext.convert(g) for g in self.gens]
            + [(ext.one - ext.var(0)) * ext.convert(g) for g in other.gens]))

    def colon(self, f) -> "Ideal":
        """(I : f) = {g : g*f in I}, by one signature step on I's basis.

        `groebner.colon_basis` runs the step with f on top of the cached
        reduced basis; the result keeps the reduced basis it returns.
        """
        return _with_basis(self.ring, colon_basis(self.groebner(),
                                                  self._element(f)))

    def colon_ideal(self, other: "Ideal") -> "Ideal":
        """(I : J), by one colon step in R[@y] with f = sum y^(j-1) g_j.

        A polynomial in y lies in I*R[y] exactly when each coefficient lies
        in I, so (I*R[y] : f) cap R is the intersection of the (I : g_j).
        Under the block order with y first, the y-free part of the step's
        reduced basis is the reduced basis of that intersection, and only
        that part is reduced.
        """
        if other.ring != self.ring:
            raise ValueError("ideal colon over mismatched rings")
        gens = other.gens
        if not gens:
            raise ValueError("colon by the zero ideal")
        ext = _block_ring(("@y",), self.ring)
        y = ext.var(0)
        f = sum((y**j * ext.convert(g) for j, g in enumerate(gens)), ext.zero)
        return _with_basis(self.ring, _basis(
            [f], self.ring, [ext.convert(g) for g in self.groebner()]))

    def eliminate(self, names) -> "Ideal":
        """I cap k[remaining variables], as an ideal of the smaller ring.

        The smaller ring is lex when this ring is lex, degrevlex otherwise.
        """
        names = [names] if isinstance(names, str) else list(names)
        drop = {self.ring.index(n) for n in names}
        keep = [i for i in range(self.ring.nvars) if i not in drop]
        if not keep:
            raise ValueError("cannot eliminate every variable")
        small = Ring(self.ring.field, [self.ring.names[i] for i in keep],
                     Lex(len(keep)) if type(self.ring.order) is Lex else None)
        front = tuple(self.ring.names[i] for i in sorted(drop))
        return _eliminate_front(front, small, lambda ext: (
            [ext.convert(g) for g in self.gens]))

    # -- localization-at-origin predicate ------------------------------------

    def locally_contains_at_origin(self, f) -> Polynomial | None:
        """A unit u at the origin with u*f in I, or None when f lies
        outside I after localizing at the origin.

        u is `unit_at_origin` of (I : f); f lies in the localized ideal iff
        there is one.
        """
        f = self._element(f)
        if f.is_zero():
            raise ValueError("local membership of the zero polynomial is trivial")
        return self.colon(f).unit_at_origin()

    def unit_at_origin(self) -> Polynomial | None:
        """The first reduced basis element with a nonzero constant term, a
        unit after localizing at the origin, or None when the ideal lies
        inside the maximal ideal of the origin."""
        zero = self.ring.field.zero
        return next((g for g in self.groebner() if g.constant_term() != zero),
                    None)

    # -- numerical invariants -------------------------------------------------

    def krull_dim_quotient(self) -> int:
        """Krull dimension of R/I; -1 for the unit ideal.

        Computed combinatorially from the leading-term ideal: the dimension
        is the largest size of a variable subset that supports no leading
        monomial entirely, that is n minus the fewest variables that meet
        the support of every leading monomial (`_transversal`; all n
        variables always do).
        """
        if not self.is_proper():
            return -1
        supports = {sum(1 << i for i, e in enumerate(g.lead_monomial()) if e)
                    for g in self.groebner()}
        n = self.ring.nvars
        return n - _transversal(sorted(supports, key=int.bit_count), n)

    def standard_monomials(self):
        """Monomials outside LT(I), ascending; None when infinitely many.

        They are finite exactly when every variable has a pure power among
        the lead monomials. The walk raises one exponent per step, never
        before the last one raised, so it meets each monomial once; it stops
        at multiples of a lead monomial.
        """
        leads = [g.lead_monomial() for g in self.groebner()]
        n = self.ring.nvars
        pure = {i for lm in leads for i, e in enumerate(lm) if e == sum(lm)}
        if len(pure) < n:
            return None
        out = []
        stack = [((0,) * n, 0)]
        while stack:
            exps, first = stack.pop()
            if any(monomial_divides(lm, exps) for lm in leads):
                continue
            out.append(exps)
            for i in range(first, n):
                stack.append((exps[:i] + (exps[i] + 1,) + exps[i + 1:], i))
        out.sort(key=self.ring.order.key)
        return [self.ring.monomial(e) for e in out]

    def colength(self):
        """Vector-space dimension of R/I over the base field; may be infinite."""
        std = self.standard_monomials()
        if std is None:
            return math.inf
        return len(std)

    def min_generators_at_origin(self) -> int:
        """Minimal generator count after localizing at the origin.

        This is dim_k I/mI with m the ideal of the variables, computed as
        the rank of the coefficient matrix of the generators' normal forms
        modulo a basis of m*I. Requires a proper ideal.
        """
        if not self.is_proper():
            raise ValueError("minimal generators at the origin need a proper ideal")
        ring = self.ring
        mi = [v * g for v in ring.gens() for g in self.gens]
        gb_mi = buchberger(mi)
        forms = [normal_form(g, gb_mi) for g in self.gens]
        monos = sorted({e for nf in forms for e in nf.terms})
        if not monos:
            return 0
        coeffs = PolyMatrix(ring, [[nf.coeff(e) for e in monos] for nf in forms])
        return coeffs.rank_profile()[0]

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"


def _transversal(sets, limit) -> int:
    """The fewest variables that meet every bitmask of `sets`, or `limit`
    when no fewer do. The nonzero bitmasks are sorted by size.

    Branch and bound: a transversal takes some variable v of the smallest
    set; each branch takes one such v and leaves out the ones taken by the
    branches before it, so no transversal is counted twice. Pairwise
    disjoint sets each need their own variable, which bounds a branch from
    below; singletons are forced without a branch.
    """
    forced = 0
    for s in sets:
        if not s & (s - 1):
            forced |= s
    size = forced.bit_count()
    sets = [s for s in sets if not s & forced]
    disjoint, used = 0, 0
    for s in sets:
        if not s & used:
            used |= s
            disjoint += 1
    if size + disjoint >= limit:
        return limit
    if not sets:
        return size
    best = limit - size
    pick, left_out = sets[0], 0
    while pick:
        v = pick & -pick
        pick ^= v
        # A set that misses v keeps a variable outside left_out: were it
        # inside, the set would lie in sets[0] without v, so it would be
        # smaller than sets[0], the smallest.
        rest = sorted((s & ~left_out for s in sets if not s & v),
                      key=int.bit_count)
        best = 1 + _transversal(rest, best - 1)
        left_out |= v
    return size + best


def _block_ring(front, back: Ring) -> Ring:
    """k[front, back] under degrevlex on `front`, then back's own order."""
    return Ring(back.field, tuple(front) + back.names,
                Block((DegRevLex(len(front)), back.order)))


def _eliminate_front(front, back: Ring, gens) -> Ideal:
    """Eliminate the `front` variables from the ideal that gens(ext) generates.

    ext is `_block_ring(front, back)` and gens(ext) returns the generators
    as polynomials of ext. The result is an ideal of `back`, with its
    reduced basis cached.
    """
    return _with_basis(back, _basis(gens(_block_ring(front, back)), back))


def _with_basis(ring: Ring, basis) -> Ideal:
    """The ideal that a reduced basis generates, with that basis cached."""
    result = Ideal(ring, basis)
    result._gb = basis
    return result


def kernel_of_map(images, target_names=None) -> Ideal:
    """Kernel of the ring map X_i -> images[i] from a fresh target ring.

    The images live in a common parameter ring k[params]; the result is an
    ideal of k[target_names]. Up to four images default to the names
    x, y, z, t; more, or defaults that a parameter name takes, get X1, X2,
    ... Target names that collide with a parameter raise `ValueError`.
    """
    images = list(images)
    if not images:
        raise ValueError("kernel of a map needs at least one image")
    pring = images[0].ring
    for p in images:
        if p.ring != pring:
            raise ValueError("images must share one parameter ring")
    n = len(images)
    if target_names is None:
        target_names = ("x", "y", "z", "t")[:n]
        if n > 4 or set(target_names) & set(pring.names):
            target_names = tuple(f"X{i+1}" for i in range(n))
    else:
        target_names = tuple(target_names)
        if len(target_names) != n:
            raise ValueError("need one target name per image")
    clash = set(target_names) & set(pring.names)
    if clash:
        raise ValueError(f"target names collide with parameters: {sorted(clash)}")
    target = Ring(pring.field, target_names)
    return _eliminate_front(pring.names, target, lambda ext: (
        [ext.var(pring.nvars + i) - ext.convert(images[i]) for i in range(n)]))


def rees_ring(ring: Ring, n: int) -> Ring:
    """R[T1..Tn] under a block order that weighs T-degree first."""
    tnames = tuple(f"T{i+1}" for i in range(n))
    clash = set(tnames) & set(ring.names)
    if clash:
        raise ValueError(f"Rees variables collide with ring names: {sorted(clash)}")
    return _block_ring(tnames, ring)


def rees_ideal(ideal: Ideal) -> Ideal:
    """Defining ideal of the Rees algebra R[It] on the chosen generators.

    Kernel of R[T1..Tn] -> R[It], T_i -> t*f_i, computed by eliminating an
    auxiliary variable. The result lives in `rees_ring` and is homogeneous
    in the T-variables (T-degree = t-power grading of the image).
    """
    rring = rees_ring(ideal.ring, len(ideal.gens))
    return _eliminate_front(("@t",), rring, lambda ext: (
        [ext.var(1 + i) - ext.var(0) * ext.convert(g)
         for i, g in enumerate(ideal.gens)]))


def linear_type_by_rees(ideal: Ideal) -> bool:
    """Whether the Rees ideal is generated by its T-degree-1 part.

    The reduced basis splits into its T-degree-1 elements L and the rest.
    Each element of L lies in (L), so only the rest is tested; when there
    is no rest, no basis of (L) is built.
    """
    rees = rees_ideal(ideal)
    t_indices = range(len(ideal.gens))
    linear, rest = [], []
    for g in rees.groebner():
        (linear if g.degree_in(t_indices) == 1 else rest).append(g)
    linear_ideal = Ideal(rees.ring, linear)
    return all(linear_ideal.contains(g) for g in rest)
