"""Randomized contracts, each suite seeded and at least 200 cases strong.

Suites:
  a. reduced bases pass `is_groebner` and are invariant under generator
     shuffles and rescaling
  b. normal forms certify membership and reconstruct the input
  c. colon and intersection obey their defining containments; every
     elimination under a lex order caches the reduced basis of its result
     ring, and saturation matches iterated colons
  d. monomial ideals agree with direct combinatorial oracles
  e. rational and prime-field arithmetic commute with reduction mod p, and
     prime-field bases pass `is_groebner`
  f. elimination rank equals the brute-force rank from Laplace-expanded
     minors, and determinants of size 4 and 5 equal their Laplace expansion
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

from idealkit.fields import GF, QQ
from idealkit.groebner import buchberger, is_groebner, normal_form
from idealkit.idealops import Ideal, kernel_of_map, rees_ideal
from idealkit.matrix import PolyMatrix
from idealkit.orders import DegRevLex, Lex
from idealkit.poly import Polynomial, Ring

CASES = 200

R2 = Ring(QQ, ("x", "y"))
R3 = Ring(QQ, ("x", "y", "z"))


def random_poly(rng, ring, max_terms=3, max_deg=3, allow_zero=False):
    n = ring.nvars
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    coerced = {e: ring.field.coerce(c) for e, c in terms.items()}
    return Polynomial(ring, {e: c for e, c in coerced.items() if c})


def random_ideal(rng, ring, max_gens=3):
    gens = [random_poly(rng, ring) for _ in range(rng.randint(1, max_gens))]
    return [g for g in gens if not g.is_zero()]


def random_monomial(rng, ring, max_deg=3):
    exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
    return Polynomial(ring, {exps: ring.field.one})


def test_suite_a_gb_unique_under_presentation():
    rng = random.Random(20260801)
    for case in range(CASES):
        ring = R2 if case % 2 == 0 else R3
        order = DegRevLex(ring.nvars) if case % 3 else Lex(ring.nvars)
        gens = [Ring(ring.field, ring.names, order).convert(g)
                for g in random_ideal(rng, ring)]
        if not gens:
            continue
        reference = buchberger(gens)
        assert is_groebner(reference)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [Fraction(rng.choice([1, 2, 3, -1, -2])) * g
                  for g in shuffled]
        assert buchberger(scaled) == reference


def test_suite_b_normal_form_membership():
    rng = random.Random(20260802)
    for case in range(CASES):
        ring = R2 if case % 2 == 0 else R3
        gens = random_ideal(rng, ring)
        if not gens:
            continue
        gb = buchberger(gens)
        if not gb:
            continue
        assert is_groebner(gb)
        # random combinations always reduce to zero
        combo = ring.zero
        for g in gens:
            combo = combo + random_poly(rng, ring, max_terms=2,
                                        max_deg=2, allow_zero=True) * g
        assert normal_form(combo, gb).is_zero()
        # any input is reconstructed from quotients plus remainder
        f = random_poly(rng, ring, max_terms=4)
        r, qs = normal_form(f, gb, with_quotients=True)
        rebuilt = r
        for q, g in zip(qs, gb):
            rebuilt = rebuilt + q * g
        assert rebuilt == f
        # remainders are fully reduced
        assert normal_form(r, gb) == r


def test_suite_c_colon_and_intersection_contracts():
    rng = random.Random(20260803)
    image_rng = random.Random(20260813)
    for case in range(CASES):
        ring = R2 if case % 2 == 0 else R3
        deg = 3 if ring is R2 else 2
        gens = [random_poly(rng, ring, max_terms=2, max_deg=deg)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(ring, gens)
        f = random_poly(rng, ring, max_terms=2, max_deg=2)
        if f.is_zero():
            continue
        col = I.colon(f)
        for g in I.gens:
            assert col.contains(g)
        for g in col.gens:
            assert I.contains(g * f)
        J = Ideal(ring, [random_poly(rng, ring, max_terms=2, max_deg=deg)
                         for _ in range(rng.randint(1, 2))])
        meet = I.intersect(J)
        for g in meet.gens:
            assert I.contains(g) and J.contains(g)
        for a in I.gens:
            for b in J.gens:
                assert meet.contains(a * b)
        # the same inputs under lex, over Q and GF(32003): an elimination
        # must cache the reduced basis in its result ring's own order
        field = QQ if case % 4 < 2 else GF(32003)
        lex = Ring(field, ring.names, Lex(ring.nvars))
        Il, Jl, fl = Ideal(lex, I.gens), Ideal(lex, J.gens), lex.convert(f)
        images = [lex.convert(random_poly(image_rng, ring, 2, 2))
                  for _ in range(2)]
        if Il.is_zero() or fl.is_zero() or not all(images):
            continue
        for res in (Il.intersect(Jl), Il.eliminate(ring.names[0]),
                    kernel_of_map(images, ("u", "v")), rees_ideal(Il)):
            assert res.groebner() == buchberger(res.gens)


def brute_colength(lead_exps, nvars, cap=6):
    """Count monomials below the staircase by direct enumeration."""
    count = 0
    for exps in product(range(cap + 1), repeat=nvars):
        if not any(all(e >= l for e, l in zip(exps, lead))
                   for lead in lead_exps):
            if max(exps, default=0) >= cap:
                return None  # escapes the box: not zero dimensional
            count += 1
    return count


def test_suite_d_monomial_ideal_oracles():
    rng = random.Random(20260804)
    for case in range(CASES):
        ring = R2 if case % 2 == 0 else R3
        n = ring.nvars
        mons = [random_monomial(rng, ring) for _ in range(rng.randint(1, 4))]
        I = Ideal(ring, mons)
        exps = [m.lead_monomial() for m in mons]
        # membership is divisibility by some generator
        probe = random_monomial(rng, ring, max_deg=4)
        pe = probe.lead_monomial()
        divisible = any(all(p >= e for p, e in zip(pe, ge)) for ge in exps)
        assert I.contains(probe) == divisible
        # colon by a monomial shifts exponents down
        m = random_monomial(rng, ring, max_deg=2)
        me = m.lead_monomial()
        shifted = [Polynomial(ring, {tuple(max(g - b, 0) for g, b in
                                           zip(ge, me)): ring.field.one})
                   for ge in exps]
        assert I.colon(m).equals(Ideal(ring, shifted))
        # intersection is generated by pairwise least common multiples
        other = [random_monomial(rng, ring) for _ in range(rng.randint(1, 3))]
        J = Ideal(ring, other)
        lcms = [Polynomial(ring, {tuple(max(a, b) for a, b in
                                        zip(ge, oe.lead_monomial())):
                                  ring.field.one})
                for ge in exps for oe in other]
        assert I.intersect(J).equals(Ideal(ring, lcms))
        # colength matches brute-force staircase counting
        expected = brute_colength(exps, n)
        got = I.colength()
        if expected is None:
            assert got == math.inf
        else:
            assert got == expected


def test_suite_e_prime_field_consistency():
    rng = random.Random(20260805)
    primes = (3, 5, 7, 101)
    for case in range(CASES):
        p = primes[case % len(primes)]
        fp = GF(p)
        ring = R2 if case % 2 == 0 else R3
        modring = Ring(fp, ring.names, ring.order)
        f = random_poly(rng, ring, max_terms=4)
        g = random_poly(rng, ring, max_terms=4)
        fm, gm = modring.convert(f), modring.convert(g)
        assert modring.convert(f + g) == fm + gm
        assert modring.convert(f * g) == fm * gm
        assert modring.convert(f - g) == fm - gm
        # determinants commute with reduction mod p
        size = rng.randint(1, 3)
        rows = [[random_poly(rng, ring, max_terms=2, max_deg=2)
                 for _ in range(size)] for _ in range(size)]
        det_q = PolyMatrix(ring, rows).det()
        det_p = PolyMatrix(modring,
                           [[modring.convert(e) for e in row]
                            for row in rows]).det()
        assert modring.convert(det_q) == det_p
        # prime-field bases are self-consistent
        gens = random_ideal(rng, modring)
        if not gens:
            continue
        gb = buchberger(gens)
        for gen in gens:
            assert normal_form(gen, gb).is_zero() if gb else gen.is_zero()
        assert is_groebner(gb)


def laplace(rows):
    """Determinant by cofactor expansion along the first row: the reference."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero
    for j, a in enumerate(rows[0]):
        if not a.is_zero():
            term = a * laplace([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


def brute_rank(m):
    """Largest k with a nonzero k x k minor, by Laplace expansion of each."""
    rank = 0
    for k in range(1, min(m.shape) + 1):
        if not any(not laplace([[m[i, j] for j in cols] for i in rows]).is_zero()
                   for rows in combinations(range(m.nrows), k)
                   for cols in combinations(range(m.ncols), k)):
            break
        rank = k
    return rank


def test_suite_f_rank_profile_matches_minors():
    rng = random.Random(20260806)
    rings = (R2, Ring(GF(32003), R2.names))
    for case in range(CASES):
        ring = rings[case // 4 % 2]
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        shape = case % 4
        if shape == 0:
            rows = [[0] * m for _ in range(n)]
        elif shape == 1:
            # a product through an inner dimension below min(n, m)
            inner = rng.randint(1, max(1, min(n, m) - 1))
            a = PolyMatrix(ring, [[random_poly(rng, ring, 2, 1, True)
                                   for _ in range(inner)] for _ in range(n)])
            b = PolyMatrix(ring, [[random_poly(rng, ring, 2, 1, True)
                                   for _ in range(m)] for _ in range(inner)])
            rows = a.mul(b).rows
        else:
            rows = [[random_poly(rng, ring, 2, 1, allow_zero=True)
                     for _ in range(m)] for _ in range(n)]
        mat = PolyMatrix(ring, rows)
        rank, prows, pcols = mat.rank_profile()
        assert rank == brute_rank(mat)
        assert len(prows) == len(pcols) == rank
        for k in range(1, rank + 1):
            assert not mat.minor(prows[:k], pcols[:k]).is_zero()
        # det() eliminates from size 4 up; Laplace expansion is independent
        for k in (4, 5):
            for rows in combinations(range(mat.nrows), k):
                for cols in combinations(range(mat.ncols), k):
                    sub = mat.submatrix(rows, cols)
                    assert sub.det() == laplace(sub.rows)
