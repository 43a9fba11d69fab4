"""Ideal-level operations: membership, colon, intersection, elimination,
kernels, Rees ideals, dimension, colength, local predicates."""

import math

import pytest

from idealkit.cli import main
from idealkit.fields import GF, QQ
from idealkit.groebner import buchberger
from idealkit.idealops import (
    Ideal,
    kernel_of_map,
    linear_type_by_rees,
    rees_ideal,
    rees_ring,
)
from idealkit.poly import Ring

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
    assert got.contains_ideal(I * J)


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


def test_saturate():
    x, y = R2.gens()
    I = Ideal(R2, [x**2 * y, x * y**2])
    assert I.saturate(x) == Ideal(R2, [y])


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


def test_locally_contains_at_origin():
    x, y = R2.gens()
    J = Ideal(R2, [x**2, y**2])
    assert not J.locally_contains_at_origin(x * y).verdict

    I = Ideal(R2, [(1 + x) * y])
    res = I.locally_contains_at_origin(y)
    assert res.verdict
    assert res.witness is not None
    assert res.witness.constant_term() != 0

    assert Ideal(R2, [x]).locally_contains_at_origin(x + x**2).verdict
    with pytest.raises(ValueError):
        J.locally_contains_at_origin(R2.zero)


def test_local_consistent_with_global():
    x, y = R2.gens()
    I = Ideal(R2, [x**2 + y])
    f = (x**2 + y) * (x - 2)
    assert I.contains(f)
    assert I.locally_contains_at_origin(f).verdict


def test_krull_dim_quotient():
    assert Ideal(R3, []).krull_dim_quotient() == 3
    assert Ideal(R3, lemma3_gens()).krull_dim_quotient() == 1
    assert Ideal(R3, [R3.one]).krull_dim_quotient() == -1
    x, y = R2.gens()
    assert Ideal(R2, [x]).krull_dim_quotient() == 1
    assert Ideal(R2, [x, y]).krull_dim_quotient() == 0


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
