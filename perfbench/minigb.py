"""A small Groebner-basis engine of the benchmark's own, for output checks.

It shares no code with idealkit. A polynomial is a dict from exponent
tuples to coefficients: `Fraction` over Q, residues in [0, p) over GF(p).
An order is a key function on exponent tuples; a bigger key is a bigger
monomial. `groebner` is Buchberger with the product and chain criteria and
the normal selection strategy, followed by reduction to the unique reduced
(monic) basis, which is what every basis-valued `idealkit run` command
prints. It is slow, and only has to handle the session workload's small
ideals, once per run.
"""

from __future__ import annotations

import functools
import heapq
import re
from fractions import Fraction
from itertools import combinations


class Field:
    """Q when p is None, else GF(p)."""

    def __init__(self, p=None):
        self.p = p

    def coerce(self, value):
        q = Fraction(value)
        if self.p is None:
            return q
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def norm(self, c):
        return c if self.p is None else c % self.p

    def inv(self, c):
        return 1 / c if self.p is None else pow(c, -1, self.p)


def block(*sizes):
    """Key of the product of degrevlex orders on consecutive variable blocks."""

    def key(exps):
        out = []
        i = 0
        for n in sizes:
            part = exps[i:i + n]
            out.append(sum(part))
            out.extend(-e for e in reversed(part))
            i += n
        return tuple(out)

    return key


def degrevlex(n):
    return block(n)


# -- text ----------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse(text, names, F):
    """A polynomial from idealkit's printed form, e.g. `x^2*y - 1/3*z + 2`."""
    index = {name: i for i, name in enumerate(names)}
    out = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        c = Fraction(1)
        exps = [0] * len(names)
        for factor in body.split("*"):
            if factor[0].isdigit():
                c *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power or 1)
        c = F.coerce(-c if sign == "-" else c)
        key = tuple(exps)
        v = F.norm(out.get(key, 0) + c)
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def frozen(polys):
    """Order-free form of a list of polynomials, for comparing bases."""
    return {frozenset(p.items()) for p in polys if p}


# -- arithmetic ------------------------------------------------------------------

def lead(f, key):
    return max(f, key=key)


def mul(f, g, F):
    out = {}
    for e, c in f.items():
        for d, b in g.items():
            t = tuple(x + y for x, y in zip(e, d))
            out[t] = F.norm(out.get(t, 0) + c * b)
    return {t: c for t, c in out.items() if c}


def sub(f, g, F):
    out = dict(f)
    for e, c in g.items():
        v = F.norm(out.get(e, 0) - c)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def monic(f, key, F):
    inv = F.inv(f[lead(f, key)])
    return {e: F.norm(c * inv) for e, c in f.items()}


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _subtract_multiple(f, g, c, shift, F):
    """f -= c * x^shift * g, in place."""
    for e, d in g.items():
        t = tuple(x + y for x, y in zip(e, shift))
        v = F.norm(f.get(t, 0) - c * d)
        if v:
            f[t] = v
        else:
            f.pop(t, None)


def reduce(f, basis, key, F):
    """Remainder of f on full division by a list of monic polynomials."""
    leads = [(lead(g, key), g) for g in basis]
    f = dict(f)
    rem = {}
    while f:
        m = lead(f, key)
        for lm, g in leads:
            if _divides(lm, m):
                c = f[m]
                _subtract_multiple(f, g, c, tuple(x - y for x, y in zip(m, lm)), F)
                break
        else:
            rem[m] = f.pop(m)
    return rem


def divexact(h, f, key, F):
    """h / f, for an h that f divides."""
    lm = lead(f, key)
    inv = F.inv(f[lm])
    h = dict(h)
    q = {}
    while h:
        m = lead(h, key)
        if not _divides(lm, m):
            raise ArithmeticError("division is not exact")
        shift = tuple(x - y for x, y in zip(m, lm))
        c = F.norm(h[m] * inv)
        q[shift] = c
        _subtract_multiple(h, f, c, shift, F)
    return q


# -- Groebner bases --------------------------------------------------------------

def groebner(polys, key, F):
    """The reduced Groebner basis of the polynomials, as a list."""
    key = functools.lru_cache(maxsize=None)(key)
    basis = []                       # (lead monomial, monic polynomial)
    pairs = []                       # heap of (degree of lcm, key of lcm, i, j)
    pending = set()

    def add(h):
        h = monic(h, key, F)
        lm = lead(h, key)
        j = len(basis)
        for i, (other, _) in enumerate(basis):
            lcm = tuple(max(x, y) for x, y in zip(lm, other))
            heapq.heappush(pairs, (sum(lcm), key(lcm), i, j))
            pending.add((i, j))
        basis.append((lm, h))

    def chain(i, j, lcm):
        """Buchberger's chain criterion: some third lead divides the lcm and
        both of its pairs with i and j are done."""
        for k, (lm, _) in enumerate(basis):
            if k != i and k != j and _divides(lm, lcm) \
                    and (min(i, k), max(i, k)) not in pending \
                    and (min(j, k), max(j, k)) not in pending:
                return True
        return False

    for f in polys:
        r = reduce(f, [g for _, g in basis], key, F)
        if r:
            add(r)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        (a, f), (b, g) = basis[i], basis[j]
        if not any(x and y for x, y in zip(a, b)):
            continue                 # coprime leads: the S-polynomial reduces to 0
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        if chain(i, j, lcm):
            continue
        s = _shifted(f, tuple(x - y for x, y in zip(lcm, a)))
        _subtract_multiple(s, g, 1, tuple(x - y for x, y in zip(lcm, b)), F)
        r = reduce(s, [h for _, h in basis], key, F)
        if r:
            add(r)
    # minimal: drop every element whose lead another element's lead divides
    minimal = []
    for k, (lm, g) in enumerate(basis):
        if not any(_divides(other, lm) and (other != lm or m < k)
                   for m, (other, _) in enumerate(basis) if m != k):
            minimal.append((lm, g))
    out = []
    for k, (lm, g) in enumerate(minimal):
        others = [h for m, (_, h) in enumerate(minimal) if m != k]
        tail = reduce({e: c for e, c in g.items() if e != lm}, others, key, F)
        tail[lm] = g[lm]
        out.append(tail)
    out.sort(key=lambda p: key(lead(p, key)), reverse=True)
    return out


def _shifted(f, shift):
    return {tuple(x + y for x, y in zip(e, shift)): c for e, c in f.items()}


def _lift(f, front):
    """f with the exponents `front` of new leading variables put before."""
    return {front + e: c for e, c in f.items()}


def eliminate_front(polys, k, tail_sizes, F):
    """Reduced basis of I cap k[back variables], the first k eliminated."""
    basis = groebner(polys, block(k, *tail_sizes), F)
    return [{e[k:]: c for e, c in g.items()} for g in basis
            if not any(any(e[:k]) for e in g)]


# -- ideal operations, in the session ring (n variables, degrevlex) ------------

def intersect(I, J, n, F):
    """I cap J, by eliminating u from u*I + (1-u)*J."""
    gens = [_lift(f, (1,)) for f in I]
    for g in J:
        gens.append(sub(_lift(g, (0,)), _lift(g, (1,)), F))
    return eliminate_front(gens, 1, (n,), F)


def colon(I, f, n, F):
    """(I : f) = (I cap (f)) / f."""
    key = degrevlex(n)
    return groebner([divexact(h, f, key, F) for h in intersect(I, [f], n, F)],
                    key, F)


def colon_ideal(I, J, n, F):
    """(I : J), the intersection of (I : h) over the generators h of J."""
    result = colon(I, J[0], n, F)
    for h in J[1:]:
        result = intersect(result, colon(I, h, n, F), n, F)
    return result


def rees(I, n, F):
    """Defining ideal of R[It] in k[T1..Tm, vars] (block degrevlex order)."""
    m = len(I)
    gens = []
    for i, f in enumerate(I):
        unit = tuple(int(j == i) for j in range(m))
        g = {(0,) + unit + (0,) * n: F.coerce(1)}
        gens.append(sub(g, _lift(f, (1,) + (0,) * m), F))
    return eliminate_front(gens, 1, (m, n), F)


def linear_type(I, n, F):
    """Whether the Rees ideal is generated by its T-degree-one part."""
    m = len(I)
    basis = rees(I, n, F)
    linear = [g for g in basis if max(sum(e[:m]) for e in g) == 1]
    if not linear:
        return not basis
    key = block(m, n)
    linear_gb = groebner(linear, key, F)
    return all(not reduce(g, linear_gb, key, F) for g in basis)


def krull_dim(basis, n):
    """Dimension of R/I from the leads of its degrevlex basis; -1 for R."""
    if not basis:
        return n
    leads = [lead(g, degrevlex(n)) for g in basis]
    if not any(leads[0]):
        return -1
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if not any(all(i in subset for i, e in enumerate(lm) if e)
                       for lm in leads):
                return size
    return 0


def colength(basis, n):
    """Number of standard monomials of a degrevlex basis, None if infinite."""
    leads = [lead(g, degrevlex(n)) for g in basis]
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in leads
                if lm[i] and all(e == 0 for j, e in enumerate(lm) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            count += not any(_divides(lm, prefix) for lm in leads)
            continue
        stack.extend(prefix + (e,) for e in range(bounds[len(prefix)]))
    return count


def minors2(M, n, F):
    """The 2x2 minors of M in scan order, each up to sign, repeats dropped."""
    key = degrevlex(n)
    out, seen = [], set()
    rows, cols = len(M), len(M[0])
    for r1, r2 in combinations(range(rows), 2):
        for c1, c2 in combinations(range(cols), 2):
            d = sub(mul(M[r1][c1], M[r2][c2], F), mul(M[r1][c2], M[r2][c1], F), F)
            if d:
                lc = d[lead(d, key)]
                negate = lc < 0 if F.p is None else lc > F.p // 2
                if negate:
                    d = {e: F.norm(-c) for e, c in d.items()}
            form = frozenset(d.items())
            if form not in seen:
                seen.add(form)
                out.append(d)
    return out


def curve_kernel(exponents, F):
    """Kernel of k[x, y, z] -> k[s], (x, y, z) -> (s^a, s^b, s^c)."""
    k = len(exponents)
    gens = []
    for i, a in enumerate(exponents):
        var = {(0,) + tuple(int(j == i) for j in range(k)): F.coerce(1)}
        gens.append(sub(var, {(a,) + (0,) * k: F.coerce(1)}, F))
    return eliminate_front(gens, 1, (k,), F)
