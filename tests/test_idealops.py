"""Ideal-level operations: membership, colon, intersection, elimination,
kernels, Rees ideals, dimension, colength, local predicates."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from idealkit import groebner, idealops
from idealkit.certify import syzygetic_obstruction
from idealkit.cli import main
from idealkit.fields import GF, QQ
from idealkit.groebner import (
    buchberger,
    colon_basis,
    is_groebner,
    normal_form,
)
from idealkit.idealops import (
    Ideal,
    _block_ring,
    _eliminate_front,
    _transversal,
    kernel_of_map,
    linear_type_by_rees,
    rees_ideal,
    rees_ring,
)
from idealkit.orders import Block, DegRevLex, Lex
from idealkit.parse import parse_session
from idealkit.poly import Ring

from test_groebner import _regular_reductions

R2 = Ring(QQ, ("x", "y"))
R3 = Ring(QQ, ("x", "y", "z"))
R4 = Ring(QQ, ("x", "y", "z", "t"))


def lemma3_gens():
    x, y, z = R3.gens()
    return [
        y**3 - x**4,
        x * y * z - z**3 + x**4 - x * y**3,
        x**2 * y + y**2 * z - x * z**2 - x**3 * y,
        x * y**2 - y * z**2 - x**2 * y**2 + x**3 * z,
    ]


def lemma4_gens():
    x, y, z, t = R4.gens()
    return [
        y * z - x * t, z**3 - x**5, z**2 * t - x**4 * y,
        z * t**2 - x**3 * y**2, t**3 - x**2 * y**3, y**4 - x**5,
        y**3 * t - x**4 * z, y**2 * t**2 - x**3 * z**2,
    ]


def test_contains():
    x, y = R2.gens()
    J = Ideal(R2, [x**2, y**2])
    I = Ideal(R2, [x**2, x * y, y**2])
    assert not J.contains(x * y)
    assert (J * I).contains((x * y) ** 2)
    assert J.contains(R2.zero)


def test_membership_witness():
    x, y = R2.gens()
    J = Ideal(R2, [x**2, y**2])
    got = J.membership_witness(x**3 + x * y**2)
    assert got is not None
    quotients, basis = got
    acc = R2.zero
    for q, g in zip(quotients, basis):
        acc = acc + q * g
    assert acc == x**3 + x * y**2
    assert J.membership_witness(x * y) is None


def test_ideal_equality():
    x, y, z = R3.gens()
    f = lemma3_gens()
    assert Ideal(R3, [f[0], f[1], x]) == Ideal(R3, [x, y**3, z**3])
    X, Y, Z, T = R4.gens()
    g = lemma4_gens()
    assert Ideal(R4, [g[1], g[4], g[5], X]) == Ideal(
        R4, [X, Y**4, Z**3, T**3])
    I = Ideal(R3, f)
    assert I == Ideal(R3, list(reversed(f)))
    assert I != Ideal(R3, f[:2])


def test_colon_monomial():
    x, y = R2.gens()
    J = Ideal(R2, [x**2, y**2])
    assert J.colon(x * y) == Ideal(R2, [x, y])
    I = Ideal(R2, [x**2, x * y, y**2])
    assert not (J * I).colon((x * y) ** 2).is_proper()
    assert J.colon(R2.one) == J
    with pytest.raises(ValueError):
        J.colon(R2.zero)


def test_colon_ideal():
    x, y = R2.gens()
    I = Ideal(R2, [x**2 * y, x * y**2])
    J = Ideal(R2, [x, y])
    assert I.colon_ideal(J) == Ideal(R2, [x * y])
    with pytest.raises(ValueError):
        I.colon_ideal(Ideal(R2, []))


def test_colon_ideal_refuses_another_ring():
    # As for +, * and intersect: J of another field is not coerced, and J
    # with another variable is not a KeyError.
    x, y = R2.gens()
    I = Ideal(R2, [x**2, y**2])
    f7 = Ring(GF(7), ("x", "y"))
    for other in (Ideal(f7, [f7.var(0)]), Ideal(R3, [R3.var(2)])):
        with pytest.raises(ValueError, match="mismatched rings"):
            I.colon_ideal(other)


@pytest.mark.parametrize("query", [
    lambda I, f: I.contains(f),
    lambda I, f: I.membership_witness(f),
    lambda I, f: I.colon(f),
    lambda I, f: I.locally_contains_at_origin(f),
    lambda I, f: syzygetic_obstruction(I, f, I + Ideal(I.ring, [f])),
], ids=["contains", "membership_witness", "colon", "local", "syzygetic"])
def test_queries_refuse_a_polynomial_of_another_field(query):
    # x + 6 over GF(7) is x - 1 there, but coerced into Q it would be
    # x + 6, so a query raises. Construction still coerces.
    x, y = R2.gens()
    f7 = Ring(GF(7), ("x", "y"))
    I = Ideal(R2, [x - 1, y**2])
    with pytest.raises(ValueError, match=r"in Fp\(7\), not in Q$"):
        query(I, f7.var(0) + 6)
    assert Ideal(R2, [f7.var(0) + 6]).gens == (x + 6,)


def test_query_names_a_variable_the_ring_lacks():
    I = Ideal(R2, [R2.var(0)])
    with pytest.raises(ValueError, match="^'z' is not a ring variable$"):
        I.contains(R3.var(2))


def test_eliminate_rejects_an_unknown_variable():
    I = Ideal(R2, [R2.var(0) - R2.var(1)])
    with pytest.raises(ValueError, match="^'q' is not a ring variable$"):
        I.eliminate(["y", "q"])


def colon_by_elimination(I, f):
    """(I : f) as I cap (f), divided by f: the elimination route that the
    signature step replaced, kept here as the differential reference."""
    meet = I.intersect(Ideal(I.ring, [f]))
    return Ideal(I.ring, [g.divexact(f) for g in meet.gens])


def colon_ideal_by_elimination(I, J):
    """(I : J) as the intersection of the (I : g) over J's generators."""
    gens = J.gens
    result = colon_by_elimination(I, gens[0])
    for g in gens[1:]:
        result = result.intersect(colon_by_elimination(I, g))
    return result


def colon_with_step_basis(colon, I, arg):
    """colon(I, arg), and the basis that the step hands to `_reduce_basis`:
    the basis of I with the cofactors of the step's reductions to zero, as
    polynomials of the step's ring (R[@y] for `Ideal.colon_ideal`)."""
    I.groebner()
    ring = I.ring if colon is Ideal.colon else _block_ring(("@y",), I.ring)
    seen = []
    reduce_basis = groebner._reduce_basis

    def capture(pk, back, elements):
        seen[:] = [groebner._unpack(pk, ring, {m: terms[m] for m in sorted(
                       terms, reverse=True)}, ring.field.one)
                   for terms, _ in elements]
        return reduce_basis(pk, back, elements)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_reduce_basis", capture)
        result = colon(I, arg)
    return result, seen


def random_poly(rng, ring):
    n = ring.nvars
    return ring.poly({
        tuple(rng.randint(0, 3 if n < 4 else 2) for _ in range(n)):
            rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(1, 3))})


COLON_ORDERS = {"lex": Lex, "degrevlex": DegRevLex,
                "block": lambda n: Block((DegRevLex(1), DegRevLex(n - 1)))}


@pytest.mark.parametrize("order", COLON_ORDERS)
@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=repr)
def test_colon_step_matches_elimination(field, order):
    # Seeded random I, f and J in 2-4 variables. The step's reduced basis
    # equals the elimination route's, and the basis of I with the step's
    # cofactors is already a Groebner basis, as `colon_basis` proves.
    rng = random.Random(f"{field!r} {order}")
    for case in range(12):
        n = 2 + case % 3
        ring = Ring(field, ("x", "y", "z", "w")[:n], COLON_ORDERS[order](n))
        I = Ideal(ring, [random_poly(rng, ring)
                         for _ in range(rng.randint(1, 3))])
        f = random_poly(rng, ring)
        J = Ideal(ring, [random_poly(rng, ring) for _ in range(2 + case % 2)])
        if f.is_zero() or J.is_zero():
            continue
        got, step = colon_with_step_basis(Ideal.colon, I, f)
        assert got.groebner() == colon_by_elimination(I, f).groebner()
        assert is_groebner(step)
        got, step = colon_with_step_basis(Ideal.colon_ideal, I, J)
        assert got.groebner() == colon_ideal_by_elimination(I, J).groebner()
        assert is_groebner(step)


@pytest.mark.parametrize("field", ["q", "fp:32003"])
def test_run_colon_by_an_ideal_matches_elimination(field, tmp_path, capsys):
    # `run ... colon I J` with J naming an ideal goes through
    # `Ideal.colon_ideal`, as every `session` benchmark pass does.
    text = """ring Q[x, y, z, t];
    ideal I = x*t - 3*y^2, x*t - y*z, t^2 - x^2;
    ideal J = y^2 - x*t, y*t - 3*x^2;
    """
    path = tmp_path / "colon.ikt"
    path.write_text(text)
    assert main(["run", str(path), "colon", "I", "J", "--field", field]) == 0
    session = parse_session(text, QQ if field == "q" else GF(32003))
    I, J = (Ideal(session.ring, session.ideals[n]) for n in "IJ")
    expected = colon_ideal_by_elimination(I, J).groebner()
    assert len(expected) > 1
    assert capsys.readouterr().out.splitlines() == [str(g) for g in expected]


def test_basis_driver_refuses_mixed_rings():
    x, y = R2.gens()
    other = Ring(GF(7), ("x", "y"))
    with pytest.raises(ValueError, match="share one ring"):
        buchberger([x, other.var(1)])
    with pytest.raises(ValueError, match="share one ring"):
        colon_basis([other.var(0)], y)
    with pytest.raises(ValueError, match="share one ring"):
        groebner._basis([x * y], R2, [x, R3.var(2)])


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=repr)
def test_colon_step_edge_cases(field):
    ring = Ring(field, ("x", "y", "z"))
    x, y, z = ring.gens()
    I = Ideal(ring, [x**2 - y * z, y**3 - x])
    unit = Ideal(ring, [ring.one])
    zero = Ideal(ring, [])
    # f in I stops the step at the constant cofactor: I : f = (1).
    assert I.colon(x**2 * z - y * z**2).groebner() == [ring.one]
    assert I.colon(I.gens[1]).groebner() == [ring.one]
    assert I.colon_ideal(I).groebner() == [ring.one]
    # A constant f leaves I; so does a J of constants.
    assert I.colon(ring.const(3)).groebner() == I.groebner()
    assert I.colon_ideal(Ideal(ring, [ring.const(2), ring.const(5)])) == I
    # The unit ideal and the zero ideal.
    assert unit.colon(x * y - 1).groebner() == [ring.one]
    assert unit.colon_ideal(Ideal(ring, [x, y])).groebner() == [ring.one]
    assert zero.colon(x).groebner() == []
    assert zero.colon_ideal(Ideal(ring, [x, y])).groebner() == []
    for f in (x**2 * z - y * z**2, ring.const(3), x * y - 1, z):
        for J in (I, unit, zero):
            got = J.colon(f)
            assert got._gb == got.groebner() == buchberger(got.gens)
            assert got == colon_by_elimination(J, f)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_colon_step_restarts_wider_with_its_cofactors(field):
    # Degrevlex, exponents at most 68: the basis of I fits 8-bit fields,
    # but products in the colon step pass 127, so the step starts again at
    # 16 bits with f's tagged cofactor, and its cofactors still give I : f.
    ring = Ring(field, ("x", "y"), DegRevLex(2))
    x, y = ring.gens()
    I = Ideal(ring, [3 * x**57 * y**65 + 3 * x**24 * y**23,
                     -x**57 * y**38 - 2 * x**60 * y**23])
    f = 3 * x**50 * y**57 - 2 * x**11 * y**68
    I.groebner()
    assert sorted(ring._packings) == [8]
    got, step = colon_with_step_basis(Ideal.colon, I, f)
    assert sorted(ring._packings) == [8, 16]
    assert is_groebner(step)
    assert got.groebner() == colon_by_elimination(I, f).groebner()
    assert len(got.groebner()) == 3


def random_binomial(rng, ring):
    return ring.poly({
        tuple(rng.randint(0, 2) for _ in range(ring.nvars)):
            rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(2)})


def front_free_slice(k, back, basis):
    """The elements of a full reduced basis under `_block_ring` that are
    free of the first k variables, moved into `back`: the route that
    reduced the whole basis, kept here as the reference."""
    return [back.poly({e[k:]: c for e, c in g.terms.items()})
            for g in basis if not any(any(e[:k]) for e in g.terms)]


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=repr)
def test_kept_block_matches_full_reduction(field, order):
    # Seeded random binomial ideals in 1-2 front and 2-4 back variables.
    # Reducing only the front-free elements gives the front-free slice of
    # the full reduced basis, for eliminations and for the colon step in
    # R[@y]. Binomials keep the lex cases small: with `random_poly`'s
    # trinomials, one 4-variable lex colon over GF(32003) finished in 25 s
    # by neither route, nor in 100 s in sympy.
    rng = random.Random(f"kept {field!r} {order}")
    for case in range(8):
        k, n = 1 + case % 2, 2 + case % 3
        back = Ring(field, ("x", "y", "z", "w")[:n], COLON_ORDERS[order](n))
        front = ("@a", "@b")[:k]
        ext = _block_ring(front, back)
        gens = [random_binomial(rng, ext) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        got = _eliminate_front(front, back, lambda ring: gens)
        assert got.groebner() == front_free_slice(k, back, buchberger(gens))
        I = Ideal(back, [random_binomial(rng, back) for _ in range(2)])
        J = Ideal(back, [random_binomial(rng, back) for _ in range(2)])
        if J.is_zero():
            continue
        y = _block_ring(("@y",), back).var(0)
        f = sum((y**j * y.ring.convert(g)
                 for j, g in enumerate(J.gens)), y.ring.zero)
        full = colon_basis([y.ring.convert(g) for g in I.groebner()], f)
        assert I.colon_ideal(J).groebner() == front_free_slice(1, back, full)


def assert_descending(p):
    key = p.ring.order.key
    assert p.sorted_terms() == sorted(p.terms.items(),
                                      key=lambda t: key(t[0]), reverse=True)


@pytest.mark.parametrize("order", COLON_ORDERS)
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_kernel_output_keeps_the_ring_order(field, order):
    # Every polynomial that leaves the kernel lists its terms in descending
    # order, so `sorted_terms` can take them as they are.
    rng = random.Random(f"order {field!r} {order}")
    for case in range(6):
        n = 2 + case % 3
        ring = Ring(field, ("x", "y", "z", "w")[:n], COLON_ORDERS[order](n))
        gens = [g for g in (random_poly(rng, ring) for _ in range(3)) if g]
        basis = buchberger(gens)
        f = random_poly(rng, ring)
        r, qs = normal_form(f * f + f, gens, with_quotients=True)
        I = Ideal(ring, gens)
        J = Ideal(ring, [random_binomial(rng, ring) for _ in range(2)])
        out = [*basis, r, *qs]
        if f:
            out += colon_basis(basis, f)
        if not J.is_zero():
            out += I.intersect(J).groebner() + I.colon_ideal(J).groebner()
        out += I.eliminate(ring.names[0]).groebner()
        for p in out:
            assert_descending(p)


@pytest.mark.parametrize("arg, counts", [("f", (4, 4)), ("J", (13, 4))])
def test_colon_step_work(monkeypatch, arg, counts):
    # (Regular reductions, of which to zero) of one colon step over
    # GF(32003) on a binomial ideal of the session benchmark's kind: I : f,
    # and I : J as one step in R[@y]. The basis of I is built first and
    # not counted.
    text = """ring Q[x, y, z, t];
    poly f = t;
    ideal I = x*t - 3*y^2, x*t - y*z, t^2 - x^2;
    ideal J = y^2 - x*t, y*t - 3*x^2;
    """
    session = parse_session(text, GF(32003))
    I = Ideal(session.ring, session.ideals["I"])
    I.groebner()

    def run():
        if arg == "f":
            I.colon(session.polys["f"])
        else:
            I.colon_ideal(Ideal(session.ring, session.ideals["J"]))

    assert _regular_reductions(monkeypatch, run) == counts


def test_intersect():
    x, y = R2.gens()
    assert Ideal(R2, [x]).intersect(Ideal(R2, [y])) == Ideal(R2, [x * y])
    got = Ideal(R2, [x**2, y**2]).intersect(Ideal(R2, [x * y]))
    assert got == Ideal(R2, [x**2 * y, x * y**2])
    I = Ideal(R2, [x**2 + y, y**3])
    assert I.intersect(I) == I


def test_intersect_contract():
    x, y = R2.gens()
    I = Ideal(R2, [x**2, x * y - 1])
    J = Ideal(R2, [x + y])
    got = I.intersect(J)
    for g in got.gens:
        assert I.contains(g) and J.contains(g)
    assert all(got.contains(g) for g in (I * J).gens)


def test_eliminate():
    ring = Ring(QQ, ("u", "x", "y"))
    u, x, y = ring.gens()
    got = Ideal(ring, [x - u**2, y - u**3]).eliminate(("u",))
    small = got.ring
    assert small.names == ("x", "y")
    sx, sy = small.gens()
    assert got == Ideal(small, [sy**2 - sx**3])

    assert Ideal(ring, [u * x]).eliminate(("u",)).groebner() == []
    got2 = Ideal(ring, [u - 1, x - u]).eliminate(("u",))
    assert got2 == Ideal(got2.ring, [got2.ring.var("x") - 1])


def test_eliminate_soundness():
    ring = Ring(QQ, ("u", "x", "y"))
    u, x, y = ring.gens()
    I = Ideal(ring, [u**2 - x, u * y - 1])
    got = I.eliminate(("u",))
    assert got.ring.names == ("x", "y")
    for g in got.gens:
        assert I.contains(ring.convert(g))


def test_kernel_of_map_cusp():
    rt = Ring(QQ, ("t",))
    t = rt.var(0)
    K = kernel_of_map([t**2, t**3])
    x, y = K.ring.gens()
    assert K == Ideal(K.ring, [y**2 - x**3])


def test_kernel_of_map_soundness_and_names():
    rt = Ring(QQ, ("t",))
    t = rt.var(0)
    K = kernel_of_map([t**3, t**4, t**5], ("a", "b", "c"))
    assert K.ring.names == ("a", "b", "c")
    for g in K.groebner():
        assert g.substitute([t**3, t**4, t**5], rt).is_zero()
    with pytest.raises(ValueError):
        kernel_of_map([t**2, t**3], ("t", "y"))
    with pytest.raises(ValueError):
        kernel_of_map([])
    # Default names that a parameter takes fall back to X1, X2, ...; the
    # defaults are kept when no parameter takes them.
    x, y = R2.gens()
    K = kernel_of_map([x**2, x * y, y**2])
    assert K.ring.names == ("X1", "X2", "X3")
    X1, X2, X3 = K.ring.gens()
    assert K == Ideal(K.ring, [X1 * X3 - X2**2])
    z, t = Ring(QQ, ("z", "t")).gens()
    assert kernel_of_map([z, t]).ring.names == ("x", "y")
    assert kernel_of_map([z, t, z * t]).ring.names == ("X1", "X2", "X3")


def test_rees_ideal_principal():
    rx = Ring(QQ, ("x",))
    assert rees_ideal(Ideal(rx, [rx.var(0)])).groebner() == []


def test_rees_ideal_koszul():
    x, y = R2.gens()
    got = rees_ideal(Ideal(R2, [x, y]))
    rr = rees_ring(R2, 2)
    t1, t2, rx, ry = rr.gens()
    assert got == Ideal(rr, [rx * t2 - ry * t1])


def test_rees_ideal_m2_has_degree_two_generator():
    x, y = R2.gens()
    I = Ideal(R2, [x**2, x * y, y**2])
    rees = rees_ideal(I)
    basis = rees.groebner()
    t_idx = (0, 1, 2)
    deg2 = [g for g in basis if g.degree_in(t_idx) == 2]
    deg1 = [g for g in basis if g.degree_in(t_idx) == 1]
    assert deg2, "expected a T-degree-2 Rees generator"
    lin = Ideal(rees.ring, deg1)
    assert any(not lin.contains(g) for g in deg2)


def test_rees_soundness():
    x, y = R2.gens()
    gens = [x**2, x * y, y**2]
    rees = rees_ideal(Ideal(R2, gens))
    ext = Ring(QQ, ("s",) + R2.names)
    s = ext.var(0)
    images = [s * ext.convert(g) for g in gens] + [
        ext.var(1 + i) for i in range(R2.nvars)]
    for g in rees.groebner():
        assert g.substitute(images, ext).is_zero()


def test_linear_type_by_rees():
    x, y = R2.gens()
    rx = Ring(QQ, ("x",))
    assert linear_type_by_rees(Ideal(rx, [rx.var(0)]))
    assert linear_type_by_rees(Ideal(R2, [x, y]))
    assert not linear_type_by_rees(Ideal(R2, [x**2, x * y, y**2]))


def test_linear_type_tests_only_what_can_fail(monkeypatch):
    # The Rees basis of (x, y) is all T-linear, so no basis of its linear
    # part is built; (x^2, xy, y^2) has a T-quadratic element, refuted by
    # a membership test in the linear part.
    calls = []

    def counting(polys):
        calls.append(len(polys))
        return buchberger(polys)

    monkeypatch.setattr(idealops, "buchberger", counting)
    x, y = R2.gens()
    assert linear_type_by_rees(Ideal(R2, [x, y]))
    assert calls == []
    assert not linear_type_by_rees(Ideal(R2, [x**2, x * y, y**2]))
    assert len(calls) == 1


def test_locally_contains_at_origin():
    x, y = R2.gens()
    J = Ideal(R2, [x**2, y**2])
    assert J.locally_contains_at_origin(x * y) is None

    I = Ideal(R2, [(1 + x) * y])
    unit = I.locally_contains_at_origin(y)
    assert unit.constant_term() != 0

    assert Ideal(R2, [x]).locally_contains_at_origin(x + x**2) is not None
    with pytest.raises(ValueError):
        J.locally_contains_at_origin(R2.zero)


def test_local_consistent_with_global():
    x, y = R2.gens()
    I = Ideal(R2, [x**2 + y])
    f = (x**2 + y) * (x - 2)
    assert I.contains(f)
    assert I.locally_contains_at_origin(f) is not None


def test_krull_dim_quotient():
    assert Ideal(R3, []).krull_dim_quotient() == 3
    assert Ideal(R3, lemma3_gens()).krull_dim_quotient() == 1
    assert Ideal(R3, [R3.one]).krull_dim_quotient() == -1
    x, y = R2.gens()
    assert Ideal(R2, [x]).krull_dim_quotient() == 1
    assert Ideal(R2, [x, y]).krull_dim_quotient() == 0


def test_dim_of_the_maximal_ideal_in_many_variables():
    # A scan over variable subsets takes 2^n steps here; n = 30 ran for
    # over an hour.
    ring = Ring(GF(7), [f"x{i}" for i in range(40)])
    I = Ideal(ring, ring.gens())
    I.groebner()
    start = time.perf_counter()
    assert I.krull_dim_quotient() == 0
    assert time.perf_counter() - start < 0.1


def subset_scan_dim(leads, n):
    """The largest set of variables that contains the support of no lead,
    by scanning subsets from the largest: the reference for the search."""
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            if not any(all(i in inside for i, e in enumerate(lm) if e)
                       for lm in leads):
                return size
    return 0


def test_dim_search_matches_the_subset_scan():
    # Under every bound from 0 to n, the search returns the fewest
    # variables that meet every support, or the bound when no fewer do.
    rng = random.Random(19)
    for _ in range(3000):
        n = rng.randint(1, 7)
        leads = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                 for _ in range(rng.randint(0, 8))]
        leads = [lm for lm in leads if any(lm)]
        supports = sorted({sum(1 << i for i, e in enumerate(lm) if e)
                           for lm in leads}, key=int.bit_count)
        cover = n - subset_scan_dim(leads, n)
        for limit in range(n + 1):
            assert _transversal(supports, limit) == min(cover, limit)
    # The monomial ideal of the leads has them as its lead monomials.
    ring = Ring(QQ, ("x", "y", "z", "w", "v"))
    for _ in range(40):
        leads = [tuple(rng.randint(0, 2) for _ in range(5))
                 for _ in range(rng.randint(1, 6))]
        leads = [lm for lm in leads if any(lm)]
        I = Ideal(ring, [ring.monomial(lm) for lm in leads])
        assert I.krull_dim_quotient() == subset_scan_dim(leads, 5)


def test_colength_examples():
    x, y, z = R3.gens()
    I = Ideal(R3, [x, y**3, y**2 * z, y * z**2, z**3])
    assert I.colength() == 6
    std = [str(m) for m in I.standard_monomials()]
    assert sorted(std) == sorted(["1", "y", "z", "y^2", "y*z", "z^2"])

    X, Y, Z, T = R4.gens()
    J = Ideal(R4, [X, Y * Z, Z**3, Z**2 * T, Z * T**2, T**3,
                   Y**4, Y**3 * T, Y**2 * T**2])
    assert J.colength() == 12
    std4 = {str(m) for m in J.standard_monomials()}
    assert std4 == {"1", "y", "y*t", "y*t^2", "y^2", "y^2*t", "y^3",
                    "z", "z*t", "z^2", "t", "t^2"}

    assert Ideal(R2, [R2.var(0), R2.var(1)]).colength() == 1


def test_colength_edge_cases():
    x, y = R2.gens()
    assert Ideal(R2, [x]).colength() == math.inf
    assert Ideal(R2, [x]).standard_monomials() is None
    assert Ideal(R2, [R2.one]).colength() == 0
    assert Ideal(R2, [R2.one]).standard_monomials() == []
    assert Ideal(R2, [x - 1, y]).colength() == 1  # point at (1, 0)


def test_colength_thin_staircase_with_high_pure_powers():
    # The standard monomials are 1 and x^a, y^a, z^a for 1 <= a <= 119; a
    # walk of the whole 120^3 box would visit 1.7 million monomials.
    x, y, z = R3.gens()
    I = Ideal(R3, [x**120, y**120, z**120, x * y, y * z, x * z])
    std = I.standard_monomials()
    assert len(std) == 1 + 3 * 119
    assert str(std[0]) == "1"
    assert sum(1 for m in std if m.degree() == 119) == 3


def test_equal_generator_sets_build_no_basis(monkeypatch):
    calls = []

    def spy(polys):
        calls.append(len(polys))
        return buchberger(polys)

    monkeypatch.setattr(idealops, "buchberger", spy)
    f = lemma3_gens()
    I = Ideal(R3, f)
    assert I.equals(Ideal(R3, [f[2], f[0], f[3], f[1], f[0]]))
    assert calls == []
    assert not I.equals(Ideal(R3, f[:3]))
    assert calls == [4, 3]


def test_min_generators_at_origin():
    x, y = R2.gens()
    assert Ideal(R2, [x**2, x * y, y**2]).min_generators_at_origin() == 3
    assert Ideal(R2, [x, x + x**2]).min_generators_at_origin() == 1
    assert Ideal(R3, lemma3_gens()).min_generators_at_origin() == 4
    with pytest.raises(ValueError):
        Ideal(R2, [R2.one]).min_generators_at_origin()


def test_ideal_add_mul():
    x, y = R2.gens()
    I = Ideal(R2, [x])
    J = Ideal(R2, [y])
    assert I + J == Ideal(R2, [x, y])
    assert I * J == Ideal(R2, [x * y])
    assert (I * J).contains(x * y**2)


def test_zero_ideal():
    Z = Ideal(R2, [])
    assert Z.is_zero()
    assert Z.groebner() == []
    assert not Z.contains(R2.var(0))
    assert Z.contains(R2.zero)
    assert Z.krull_dim_quotient() == 2


def test_zero_generators_are_dropped_when_an_ideal_is_built():
    x, y = R2.gens()
    I = Ideal(R2, [0, x, R2.zero, y, Fraction(0)])
    assert I.gens == (x, y)
    assert Ideal(R2, [0, R2.zero]).gens == ()
    assert Ideal(R2, [0]).is_zero()
    assert repr(Ideal(R2, [R2.zero])) == "Ideal(0)"


def test_unit_at_origin():
    # The first reduced basis element with a nonzero constant term.
    x, y = R2.gens()
    assert Ideal(R2, [x**2, y**2]).unit_at_origin() is None
    assert Ideal(R2, []).unit_at_origin() is None
    assert Ideal(R2, [x + 1, y]).unit_at_origin() == x + 1  # basis [y, x + 1]
    assert Ideal(R2, [x - 1, y - 2]).unit_at_origin() == y - 2
    assert Ideal(R2, [x + 1, x]).unit_at_origin() == R2.one
    I = Ideal(R2, [x * (y + 1), x**2])
    assert I.locally_contains_at_origin(x) == I.colon(x).unit_at_origin()


def _zero_ideal_operations(field, tmp_path, capsys):
    ring = Ring(field, ("x", "y"))
    x, y = ring.gens()
    Z = Ideal(ring, [ring.zero])
    assert Z.groebner() == []
    assert Z.contains(ring.zero) and not Z.contains(x)
    assert Z.membership_witness(ring.zero) == ([], [])
    assert Z.membership_witness(x) is None
    assert Z.colon(x).groebner() == []
    assert Z.krull_dim_quotient() == 2
    assert Z.standard_monomials() is None and Z.colength() == math.inf
    assert Z.min_generators_at_origin() == 0


def _nf_by_zero_ideal_on_the_command_line(field, tmp_path, capsys):
    path = tmp_path / "z.ikt"
    path.write_text("ring Q[x, y];\nideal Z = 0;\n")
    name = "q" if field == QQ else f"fp:{field.p}"
    assert main(["run", str(path), "nf", "Z", "x + y", "--field", name]) == 0
    assert capsys.readouterr().out == "x + y\n"


def _zero_ideal_of_a_ring_without_variables(field, tmp_path, capsys):
    Z = Ideal(Ring(field, ()), [])
    assert Z.standard_monomials() == [Z.ring.one]
    assert Z.colength() == 1
    assert Z.krull_dim_quotient() == 0


def _one_element_reduced_basis(field, tmp_path, capsys):
    ring = Ring(field, ("x", "y"))
    x, y = ring.gens()
    f = 2 * x * y + 3
    assert buchberger([f, f * f]) == [f.monic()]


def _only_s_polynomial_is_empty(field, tmp_path, capsys):
    ring = Ring(field, ("x", "y"))
    x, y = ring.gens()
    # y*(x^2 + x) and x*(x*y + y) are both x^2*y + x*y
    assert buchberger([x**2 + x, x * y + y]) == [x * y + y, x**2 + x]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("case", [
    _zero_ideal_operations,
    _nf_by_zero_ideal_on_the_command_line,
    _zero_ideal_of_a_ring_without_variables,
    _one_element_reduced_basis,
    _only_s_polynomial_is_empty,
], ids=lambda case: case.__name__.lstrip("_"))
def test_inputs_on_the_edge_of_the_general_path(case, field, tmp_path, capsys):
    """Zero ideals, empty bases, empty S-polynomials and single-element
    reductions go through the same code as every other input."""
    case(field, tmp_path, capsys)
