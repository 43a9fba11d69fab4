"""Polynomial matrices: products, determinants, minors, canonical sets."""

import random
import sys
import time
from fractions import Fraction

import pytest

from idealkit import groebner, matrix
from idealkit.cli import main
from idealkit.corpus import verify_lemma
from idealkit.fields import GF, QQ
from idealkit.matrix import PolyMatrix, canonical_sign, distinct_up_to_sign
from idealkit.poly import Polynomial, Ring

R3 = Ring(QQ, ("x", "y", "z"))


def lemma3_data():
    x, y, z = R3.gens()
    f1 = y**3 - x**4
    f2 = x * y * z - z**3 + x**4 - x * y**3
    f3 = x**2 * y + y**2 * z - x * z**2 - x**3 * y
    f4 = x * y**2 - y * z**2 - x**2 * y**2 + x**3 * z
    phi1 = PolyMatrix(R3, [[f1, f2, f3, f4]])
    phi2 = PolyMatrix(R3, [
        [x, x * y, z],
        [x, y, 0],
        [-z, -(x**2), -y],
        [-y, -z, x],
    ])
    return (f1, f2, f3, f4), phi1, phi2


def random_matrix(ring, n, m, rng, maxdeg=1, terms=2):
    nv = ring.nvars

    def poly():
        out = {}
        for _ in range(terms):
            e = [0] * nv
            for _ in range(maxdeg):
                e[rng.randrange(nv)] += rng.randrange(2)
            c = rng.randrange(-3, 4)
            if c:
                e = tuple(e)
                out[e] = out.get(e, 0) + c
        return Polynomial(ring, {e: Fraction(c) for e, c in out.items() if c})

    return PolyMatrix(ring, [[poly() for _ in range(m)] for _ in range(n)])


def test_shapes_and_entries():
    _, phi1, phi2 = lemma3_data()
    assert phi1.shape == (1, 4)
    assert phi2.shape == (4, 3)
    assert phi2[1, 1] == R3.var("y")
    assert phi2[2, 2] == -R3.var("y")
    with pytest.raises(ValueError):
        PolyMatrix(R3, [[R3.one], [R3.one, R3.one]])


def test_composite_vanishes():
    _, phi1, phi2 = lemma3_data()
    prod = phi1.mul(phi2)
    assert prod.shape == (1, 3)
    assert prod.is_zero()


def test_identity_product():
    rng = random.Random(5)
    a = random_matrix(R3, 3, 3, rng)
    eye = PolyMatrix(R3, [[1 if i == j else 0 for j in range(3)]
                          for i in range(3)])
    assert eye.mul(a) == a
    assert a.mul(eye) == a


def test_dimension_mismatch():
    rng = random.Random(6)
    a = random_matrix(R3, 2, 3, rng)
    b = random_matrix(R3, 2, 3, rng)
    with pytest.raises(ValueError):
        a.mul(b)


def test_det_small_vs_bareiss():
    # 4x4 uses Bareiss; deleting a row/col pair gives 3x3 cofactor dets.
    # Laplace expansion along two different rows must agree with both.
    rng = random.Random(1)
    for _ in range(8):
        m = random_matrix(R3, 4, 4, rng)
        det = m.det()
        for row in (0, 2):
            acc = R3.zero
            for j in range(4):
                entry = m[row, j]
                if entry.is_zero():
                    continue
                rows = tuple(i for i in range(4) if i != row)
                cols = tuple(c for c in range(4) if c != j)
                cof = m.minor(rows, cols)
                term = entry * cof
                if (row + j) % 2:
                    term = -term
                acc = acc + term
            assert acc == det, "Laplace expansion disagrees with det"


def test_det_transpose_invariance():
    rng = random.Random(2)
    for n in (1, 2, 3, 4, 5):
        m = random_matrix(R3, n, n, rng)
        assert m.det() == m.transpose().det()


def test_minor_transpose_invariance():
    rng = random.Random(3)
    m = random_matrix(R3, 4, 5, rng)
    mt = m.transpose()
    for rows, cols in (((0, 1), (1, 2)), ((1, 2, 3), (0, 2, 4))):
        assert m.minor(rows, cols) == mt.minor(cols, rows)


def test_minor_1x1_is_entry():
    _, _, phi2 = lemma3_data()
    assert phi2.minor((2,), (1,)) == phi2[2, 1]


def test_minor_validation():
    _, _, phi2 = lemma3_data()
    with pytest.raises(ValueError):
        phi2.minor((0, 1), (0,))
    # Read from the end, rows (0, -1) would sort to (3, 0) and give the
    # rows-(0, 3) minor with its sign flipped.
    for rows, cols in [((0, 9), (0, 1)), ((-1,), (0,)), ((0, -1), (0, 1)),
                       ((0, 4), (0, 1)), ((0,), (3,))]:
        with pytest.raises(ValueError, match="outside the 4x3 matrix"):
            phi2.minor(rows, cols)
    with pytest.raises(ValueError):
        phi2.submatrix((0, 0), (0, 1))


def test_minor_memo_keeps_no_bad_index_set():
    _, _, phi2 = lemma3_data()
    for rows, cols in [((0, 0), (0, 1)), ((0, 4), (0, 1)), ((0, 1), (0,))]:
        for _ in range(2):
            with pytest.raises(ValueError):
                phi2.minor(rows, cols)


def test_minor_is_evaluated_once(monkeypatch):
    _, _, phi2 = lemma3_data()
    calls, det = [], PolyMatrix.det

    def counted_det(self):
        calls.append(self.shape)
        return det(self)

    monkeypatch.setattr(PolyMatrix, "det", counted_det)
    first = phi2.minor((0, 2, 3), (0, 1, 2))
    assert phi2.minor((3, 0, 2), [2, 1, 0]) == first
    assert calls == [(3, 3)]


def test_lemma4_evaluates_each_minor_once(monkeypatch):
    # The acyclicity check re-reads through its hints the minors that
    # minors_located has located: 12 distinct minors, not 20 evaluations.
    calls, det = [], PolyMatrix.det

    def counted_det(self):
        calls.append(self.shape)
        return det(self)

    monkeypatch.setattr(PolyMatrix, "det", counted_det)
    assert all(r.verified for r in verify_lemma("lemma4", QQ))
    assert len(calls) == 12


def test_maximal_minors_lemma3():
    (f1, f2, f3, f4), _, phi2 = lemma3_data()
    minors = phi2.maximal_minors()
    assert len(minors) == 4
    expected = {canonical_sign(f) for f in (f1, f2, f3, f4)}
    assert set(minors) == expected


def test_maximal_minors_zero_matrix():
    z = PolyMatrix(R3, [[0, 0], [0, 0], [0, 0]])
    assert z.maximal_minors() == [R3.zero]


def test_rank_profile_lemma3():
    _, phi1, phi2 = lemma3_data()
    assert phi1.rank_profile() == (1, (0,), (0,))
    rank, rows, cols = phi2.rank_profile()
    assert (rank, cols) == (3, (0, 1, 2))
    assert not phi2.minor(rows, cols).is_zero()


def test_rank_profile_skips_zero_columns():
    x, y, _ = R3.gens()
    m = PolyMatrix(R3, [[0, 0, x], [0, y, x * y], [0, 0, 0]])
    rank, rows, cols = m.rank_profile()
    assert (rank, cols) == (2, (1, 2))
    assert sorted(rows) == [0, 1]
    assert PolyMatrix(R3, [[0, 0], [0, 0]]).rank_profile() == (0, (), ())


def test_distinct_up_to_sign_keeps_first_in_order():
    x, y, _ = R3.gens()
    got = distinct_up_to_sign([y - x, R3.zero, x - y, x, R3.zero, -x])
    assert got == [canonical_sign(y - x), R3.zero, x]


def test_minors_keyed():
    _, _, phi2 = lemma3_data()
    table = phi2.minors(3)
    assert len(table) == 4  # four row choices, one column choice
    assert ((0, 1, 2), (0, 1, 2)) in table


def test_minors_bound_checked_before_any_minor(monkeypatch):
    x, y, z = R3.gens()
    square = PolyMatrix(R3, [[x, y, z], [y, z, x], [z, x, y]])
    wide = PolyMatrix(R3, [[x, y, z, 1], [y, z, x, 1], [z, x, y, 1]])
    monkeypatch.setattr(matrix, "MAX_MINORS", 9)
    assert len(square.minors(2)) == 9
    monkeypatch.setattr(PolyMatrix, "det", None)  # building one would fail
    with pytest.raises(ValueError, match="18 minors of size 2 exceed 9"):
        wide.minors(2)


def test_run_minors_past_the_bound_exits_2(tmp_path, capsys):
    # C(16, 8)**2 is about 1.7e8 determinants of size 8.
    names = [f"x{i}" for i in range(16)]
    rows = " ; ".join(", ".join(names[(i + j) % 16] for j in range(16))
                      for i in range(16))
    path = tmp_path / "big.ikt"
    path.write_text(f"ring Q[{', '.join(names)}];\n"
                    f"matrix M 16x16 = [ {rows} ];\n")
    start = time.perf_counter()
    code = main(["run", str(path), "minors", "M", "8"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert elapsed < 1.0
    assert "165636900 minors of size 8 exceed" in err
    assert "Traceback" not in err


def seeded_entry(ring, rng):
    """0-3 terms of degree up to 2 per variable, coefficients like -5/3."""
    return ring.poly({
        tuple(rng.randint(0, 2) for _ in range(ring.nvars)):
            Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("big", [0, 70, 150])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
@pytest.mark.parametrize("n", [4, 5])
def test_packed_bareiss_matches_cofactor_expansion(monkeypatch, n, field, big):
    # The packed elimination against `_laplace`, with fractional entries
    # over Q (row scaling) and over GF(p). x^big in the top left entry
    # makes it restart at 16-bit fields: x^150 does not fit 8 bits when
    # packed, and x^70 does, but the second step's products reach x^140.
    widths = []
    packing = groebner._packing

    def logged_packing(ring, width):
        widths.append(width)
        return packing(ring, width)

    monkeypatch.setattr(groebner, "_packing", logged_packing)
    ring = Ring(field, ("x", "y", "z"))
    rng = random.Random(100 * n + big)
    lift = ring.var(0) ** big if big else ring.zero

    full = PolyMatrix(ring, [
        [seeded_entry(ring, rng) + (lift if i == j == 0 else ring.zero)
         for j in range(n)] for i in range(n)])
    det = full.det()
    assert det == matrix._laplace(full.rows, ring.zero)
    assert not det.is_zero()
    assert full.rank_profile()[0] == n
    # A product through n - 2 dimensions has rank at most n - 2, so a
    # nonzero minor of that size on the pivots proves the rank. It has no
    # x^big: in a factor, that made its elimination take about 1 s.
    deficient = (
        PolyMatrix(ring, [[seeded_entry(ring, rng) for _ in range(n - 2)]
                          for _ in range(n)])
        * PolyMatrix(ring, [[seeded_entry(ring, rng) for _ in range(n)]
                            for _ in range(n - 2)]))
    rank, rows, cols = deficient.rank_profile()
    assert rank == n - 2
    pivot_minor = deficient.submatrix(rows, cols)
    assert not matrix._laplace(pivot_minor.rows, ring.zero).is_zero()
    assert deficient.det().is_zero()
    assert set(widths) == ({8, 16} if big else {8})


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_packed_division_is_exact_or_raises(field):
    # The kernel's one division by a Bareiss pivot returns the quotient
    # when it is exact, in Z[x] over Q, and raises otherwise.
    ring = Ring(field, ("x", "y"))
    x, y = ring.gens()
    pk = groebner._packing(ring, 8)

    def packed(f):
        return {e: int(c) for e, c in pk.pack_terms(f).items()}

    def quotient(num, den):
        divisor = groebner._divisors(
            groebner._kernel_inputs(pk, field, [packed(den)], tagged=True))
        return groebner._exact_quotient(pk, field.char, packed(num), divisor,
                                        {})

    assert quotient(x**2 - y**2, x + y) == packed(x - y)
    assert quotient(x**2 - y**2, -x - y) == packed(y - x)
    assert quotient(6 * x**2 + 3 * x * y, 2 * x + y) == packed(3 * x)
    for num, den in ((x**2 + y, x + y), (x * y + 1, x), (x, y)):
        with pytest.raises(ArithmeticError):
            quotient(num, den)
    if field.char:
        assert quotient(3 * x, 2 * x) == packed(ring.const(5))
    else:
        # 3/2 is exact over Q but not in Z[x], where the rows live.
        with pytest.raises(ArithmeticError):
            quotient(3 * x, 2 * x)


def test_bareiss_forms_no_product_with_a_zero_factor(monkeypatch):
    # The lemma4 eliminations meet many zero entries; the row update skips
    # every product that would have a zero factor instead of forming it.
    # Its products are the packed ones of `_mul_into`.
    factors = []
    mul_into = matrix._mul_into

    def logged_mul_into(acc, a, b, guard, s):
        factors.append((a, b))
        return mul_into(acc, a, b, guard, s)

    monkeypatch.setattr(matrix, "_mul_into", logged_mul_into)
    reports = verify_lemma("lemma4")
    assert all(r.status == "verified" for r in reports)
    assert factors
    assert all(a and b for a, b in factors)


def test_cofactor_expansion_forms_no_product_with_a_zero_factor(monkeypatch):
    # The lemma3 and lemma4 determinants below 4x4 meet zero entries and
    # zero 2x2 minors; the expansion skips every product with a zero factor.
    factors = []
    mul = Polynomial.__mul__

    def logged_mul(a, b):
        if sys._getframe(1).f_code is matrix._laplace.__code__:
            factors.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", logged_mul)
    reports = verify_lemma("lemma3") + verify_lemma("lemma4")
    assert all(r.status == "verified" for r in reports)
    assert factors
    assert all(a and b for a, b in factors)


def test_canonical_sign():
    x, y, _ = R3.gens()
    p = -(x**2) + y
    assert canonical_sign(p) == x**2 - y
    assert canonical_sign(x**2 - y) == x**2 - y
    assert canonical_sign(R3.zero).is_zero()
    f5 = Ring(GF(5), ("x",))
    q = f5.poly({(1,): 4})  # 4 = -1 mod 5, canonical lead <= 2
    assert canonical_sign(q) == f5.poly({(1,): 1})


def test_det_prime_field_consistency():
    rng = random.Random(4)
    f7 = Ring(GF(7), ("x", "y", "z"))
    for _ in range(6):
        m = random_matrix(R3, 4, 4, rng)
        dq = m.det()
        mp = PolyMatrix(f7, [[f7.convert(e) for e in row] for row in m.rows])
        assert f7.convert(dq) == mp.det()
