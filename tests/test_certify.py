"""Certificate layer: complexes, acyclicity, minimality, obstructions,
regular sequences, valuation vectors."""

import pytest

from idealkit.certify import (
    MAX_MATERIALIZED_MINORS,
    CertificateReport,
    ComplexData,
    GradeCertificate,
    MinorIdeal,
    MinorWitness,
    buchsbaum_eisenbud,
    grade_at_least,
    is_regular_sequence,
    linear_type_obstruction,
    resolution_minimal,
    smallest_valuation_vector,
    syzygetic_obstruction,
    verify_complex,
)
from idealkit.corpus import _minor_match_report
from idealkit.fields import GF, QQ
from idealkit.idealops import Ideal
from idealkit.matrix import PolyMatrix
from idealkit.poly import Ring

R3 = Ring(QQ, ("x", "y", "z"))


def lemma3_complex():
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
    return (f1, f2, f3, f4), ComplexData([phi1, phi2], [1, 3])


def lemma3_certs(f1, f2):
    x, y, z = R3.gens()
    return {
        1: GradeCertificate(1, (f1,), (MinorWitness((0,), (0,)),)),
        2: GradeCertificate(
            2, (f1, f2),
            (MinorWitness((1, 2, 3), (0, 1, 2), 1),
             MinorWitness((0, 2, 3), (0, 1, 2), -1)),
            aux=x,
            expected=Ideal(R3, [x, y**3, z**3])),
    }


def test_verify_complex():
    _, cd = lemma3_complex()
    rep = verify_complex(cd)
    assert rep.status == "verified"
    assert rep.witness["products"] == ["M1*M2 = 0"]


def test_verify_complex_single_matrix_vacuous():
    x, _, _ = R3.gens()
    cd = ComplexData([PolyMatrix(R3, [[x]])], [1])
    assert verify_complex(cd).status == "verified"


def test_complex_data_takes_one_rank_per_map():
    x, _, _ = R3.gens()
    cd = ComplexData([PolyMatrix(R3, [[x]])], [1])
    assert type(cd.matrices) is tuple and cd.ranks == (1,)
    with pytest.raises(ValueError, match="one expected rank"):
        ComplexData([PolyMatrix(R3, [[x]])], [1, 1])
    with pytest.raises(ValueError, match="empty complex"):
        ComplexData([], [])


def test_verify_complex_dimension_mismatch():
    x, _, _ = R3.gens()
    a = PolyMatrix(R3, [[x, x]])
    b = PolyMatrix(R3, [[x]])
    rep = verify_complex(ComplexData([a, b], [1, 1]))
    assert rep.status == "inconclusive"
    assert "dimension" in rep.witness["reason"]


def test_verify_complex_nonzero_composite():
    x, _, _ = R3.gens()
    a = PolyMatrix(R3, [[x, x]])
    b = PolyMatrix(R3, [[x], [x]])
    rep = verify_complex(ComplexData([a, b], [1, 1]))
    assert rep.status == "refuted"


def test_buchsbaum_eisenbud_verified():
    (f1, f2, _, _), cd = lemma3_complex()
    rep = buchsbaum_eisenbud(cd, lemma3_certs(f1, f2))
    assert rep.status == "verified"
    detail = rep.witness["detail"]
    assert [e["position"] for e in detail] == [1, 2]
    assert all(e["grade"]["status"] == "verified" for e in detail)


def test_buchsbaum_eisenbud_rank_sum_refuted():
    (f1, f2, _, _), cd = lemma3_complex()
    phi1, phi2 = cd.matrices
    padded = PolyMatrix(R3, [[row[0]] + list(row) for row in phi2.rows])
    rep = buchsbaum_eisenbud(ComplexData([phi1, padded], [1, 3]),
                             {1: None, 2: None})
    assert rep.status == "refuted"
    assert rep.witness["clause"] == "rank_sum"


def test_buchsbaum_eisenbud_no_certs_inconclusive():
    _, cd = lemma3_complex()
    rep = buchsbaum_eisenbud(cd, {1: None, 2: None})
    assert rep.status == "inconclusive"
    assert all(e["grade"] == "no certificate provided"
               for e in rep.witness["detail"])


def test_buchsbaum_eisenbud_pivot_minors_without_hints():
    _, cd = lemma3_complex()
    rep = buchsbaum_eisenbud(cd, {1: None, 2: None})
    for m, entry in zip(cd.matrices, rep.witness["detail"]):
        named = entry["nonzero_minor"]
        assert not m.minor(named["rows"], named["cols"]).is_zero()


def test_buchsbaum_eisenbud_rank_below_expected():
    _, cd = lemma3_complex()
    phi1, phi2 = cd.matrices
    # third column = first + second, so phi2 has rank 2, not 3
    deficient = PolyMatrix(R3, [[a, b, a + b] for a, b, _ in phi2.rows])
    rep = buchsbaum_eisenbud(ComplexData([phi1, deficient], [1, 3]),
                             {1: None, 2: None})
    assert rep.status == "refuted"
    assert rep.witness["clause"] == "nonzero_minor"
    assert rep.witness["position"] == 2


def test_buchsbaum_eisenbud_rank_above_expected():
    (f1, f2, f3, f4), cd = lemma3_complex()
    x, y, z = R3.gens()
    wide = PolyMatrix(R3, [[f1, f2, f3, f4], [x, y, z, 0]])
    rep = buchsbaum_eisenbud(ComplexData([wide, cd.matrices[1]], [1, 3]),
                             {1: None, 2: None})
    assert rep.status == "refuted"
    assert rep.witness["clause"] == "vanishing_minors"
    assert rep.witness["position"] == 1
    rows, cols = rep.witness["offender"]
    assert len(rows) == len(cols) == 2
    assert not wide.minor(rows, cols).is_zero()


def test_buchsbaum_eisenbud_zero_first_map():
    x, _, _ = R3.gens()
    cd = ComplexData([PolyMatrix(R3, [[0]]), PolyMatrix(R3, [[x]])], [0, 1])
    rep = buchsbaum_eisenbud(cd, {1: None, 2: None})
    assert rep.status != "refuted"
    assert rep.witness["detail"][0]["nonzero_minor"] == {"rows": [], "cols": []}


def test_buchsbaum_eisenbud_refuted_grade_clause():
    # Both ranks hold, but x lies outside I_1(phi1) = (f1, f2, f3, f4), so
    # the first grade clause is refuted, and with it the whole claim.
    x, _, _ = R3.gens()
    _, cd = lemma3_complex()
    rep = buchsbaum_eisenbud(cd, {1: GradeCertificate(1, (x,)), 2: None})
    assert rep.status == "refuted"
    first, second = rep.witness["detail"]
    assert first["grade"]["status"] == "refuted"
    assert second["grade"] == "no certificate provided"
    assert [e["rank"] for e in (first, second)] == [1, 3]


def test_grade_at_least_minor_hint_on_a_plain_ideal():
    x, _, _ = R3.gens()
    cert = GradeCertificate(1, (x,), (MinorWitness((0,), (0,)),))
    rep = grade_at_least(Ideal(R3, [x]), 1, cert)
    assert rep.status == "inconclusive"
    assert rep.witness == {
        "membership": [{"reason": "minor hint without a minor ideal"}]}


@pytest.mark.parametrize("sign", [0, 2, -2, True, 1.0])
def test_minor_witness_sign_is_one_or_minus_one(sign):
    # A sign other than 1 or -1 had opposite readings in `certify` and
    # `corpus`; it now has none.
    with pytest.raises(ValueError, match="minor sign must be 1 or -1"):
        MinorWitness((0,), (0,), sign)


def test_grade_at_least_negative_minor_hint_is_an_error():
    # phi2's last row is -y, -z, x: read from the end, the hint (-1,), (2,)
    # would name x and verify the witness x.
    _, cd = lemma3_complex()
    x = R3.var("x")
    cert = GradeCertificate(1, (x,), (MinorWitness((-1,), (2,)),))
    with pytest.raises(ValueError, match="outside the 4x3 matrix"):
        grade_at_least(MinorIdeal(cd.matrices[1], 1), 1, cert)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_a_minus_sign_matches_the_negated_minor_only(field):
    # One meaning of a minor's sign, read by every check of a hint.
    R = Ring(field, ("x", "y"))
    x, y = R.gens()
    M = PolyMatrix(R, [[x, y], [R.zero, x]])
    hint = MinorWitness((0, 1), (0, 1), -1)
    assert M.minor(hint.rows, hint.cols) == x**2
    assert hint.signed_minor(M) == -x**2 != x**2
    statuses = []
    for w in (-x**2, x**2):
        cert = GradeCertificate(1, (w,), (hint,))
        statuses.append(grade_at_least(MinorIdeal(M, 2), 1, cert).status)
        statuses.append(_minor_match_report(
            "minors_match", {"M": M}, [("M", "w", (0, 1), (0, 1), -1)],
            {"w": w}, "").status)
    assert statuses == ["verified"] * 2 + ["refuted"] * 2


def test_grade_at_least_witness_not_in_target():
    x, y, _ = R3.gens()
    cert = GradeCertificate(1, (y,))
    rep = grade_at_least(Ideal(R3, [x]), 1, cert)
    assert rep.status == "refuted"
    assert rep.witness["membership"][-1]["reason"] == "witness not in target ideal"


def test_grade_at_least_bound_mismatch():
    x, _, _ = R3.gens()
    with pytest.raises(ValueError):
        grade_at_least(Ideal(R3, [x]), 2, GradeCertificate(1, (x,)))


def test_grade_at_least_too_few_witnesses():
    x, _, _ = R3.gens()
    rep = grade_at_least(Ideal(R3, [x]), 2, GradeCertificate(2, (x,)))
    assert rep.status == "inconclusive"


def test_grade_at_least_minor_ideal_with_hints():
    (f1, f2, _, _), cd = lemma3_complex()
    target = MinorIdeal(cd.matrices[1], 3)
    cert = GradeCertificate(
        2, (f1, f2),
        (MinorWitness((1, 2, 3), (0, 1, 2), 1),
         MinorWitness((0, 2, 3), (0, 1, 2), -1)))
    assert grade_at_least(target, 2, cert).status == "verified"
    # a wrong sign in a hint must not verify
    bad = GradeCertificate(
        2, (f1, f2),
        (MinorWitness((1, 2, 3), (0, 1, 2), -1),
         MinorWitness((0, 2, 3), (0, 1, 2), -1)))
    assert grade_at_least(target, 2, bad).status != "verified"


@pytest.mark.parametrize("nhints", [1, 3], ids=["short", "long"])
def test_grade_at_least_needs_one_minor_hint_per_witness(nhints):
    # z is not in I_1([x y]) = (x, y); a hint list of another length than
    # the witnesses must not let a witness go unchecked.
    x, y, z = R3.gens()
    hints = (MinorWitness((0,), (0,)), MinorWitness((0,), (1,)),
             MinorWitness((0,), (0,)))[:nhints]
    rep = grade_at_least(MinorIdeal(PolyMatrix(R3, [[x, y]]), 1), 2,
                         GradeCertificate(2, (x, z), hints))
    assert rep.status == "inconclusive"
    assert rep.witness == {"reason": f"{nhints} minor hints for 2 witnesses"}


@pytest.mark.parametrize("size", [3, 2], ids=["maximal", "smaller"])
def test_grade_at_least_materializes_a_minor_ideal_without_hints(size):
    # f1 is a maximal minor of phi2, so it lies in every ideal of its minors.
    (f1, _, _, _), cd = lemma3_complex()
    rep = grade_at_least(MinorIdeal(cd.matrices[1], size), 1,
                         GradeCertificate(1, (f1,)))
    assert rep.status == "verified"
    assert set(rep.witness) == {"membership", "regular_sequence"}
    assert rep.witness["membership"] == [
        {"membership": "normal form vanishes"}]


def test_grade_at_least_refuses_to_materialize_too_many_minors():
    x, _, _ = R3.gens()
    target = MinorIdeal(PolyMatrix(R3, [[x] * 10] * 10), 5)
    assert target.count > MAX_MATERIALIZED_MINORS
    rep = grade_at_least(target, 1, GradeCertificate(1, (x,)))
    assert rep.status == "inconclusive"
    assert rep.witness == {"membership": [{
        "reason": "minor ideal too large to materialize without a hint",
        "count": target.count}]}


def test_grade_at_least_with_a_sequence_that_is_not_regular():
    x, y, _ = R3.gens()
    rep = grade_at_least(Ideal(R3, [x, y]), 2,
                         GradeCertificate(2, (x, x * y)))
    assert rep.status == "refuted"
    assert set(rep.witness) == {"membership", "regular_sequence"}
    assert rep.witness["regular_sequence"]["reason"] == \
        "colon contains a unit at the origin"


def test_grade_at_least_with_a_simplification_mismatch():
    (f1, f2, _, _), cd = lemma3_complex()
    x, y, z = R3.gens()
    cert = lemma3_certs(f1, f2)[2]
    cert.expected = Ideal(R3, [x, y**3, z**2])
    rep = grade_at_least(MinorIdeal(cd.matrices[1], 3), 2, cert)
    assert rep.status == "refuted"
    assert set(rep.witness) == {"membership", "regular_sequence",
                                "simplification"}
    assert rep.witness["simplification"] == "ideal mismatch"


def test_resolution_minimal():
    _, cd = lemma3_complex()
    rep = resolution_minimal(cd)
    assert rep.status == "verified"
    assert rep.witness["mu"] == 4


def test_resolution_minimal_refuted_with_coordinates():
    x, _, _ = R3.gens()
    m = PolyMatrix(R3, [[x, 1 + x]])
    rep = resolution_minimal(ComplexData([m], [1]))
    assert rep.status == "refuted"
    assert (rep.witness["matrix"], rep.witness["row"],
            rep.witness["col"]) == (1, 0, 1)


def test_linear_type_obstruction():
    assert linear_type_obstruction(4, 3).status == "refuted"
    assert linear_type_obstruction(1, 1).status == "inconclusive"
    assert linear_type_obstruction(2, 2).status == "inconclusive"


def test_regular_sequence_verified():
    x, y, z = R3.gens()
    rep = is_regular_sequence([x, y, z])
    assert rep.status == "verified"
    assert rep.witness["length"] == 3


def test_regular_sequence_lemma3_pair():
    (f1, f2, _, _), _ = lemma3_complex()
    assert is_regular_sequence([f1, f2]).status == "verified"


def test_regular_sequence_refuted_unit_colon():
    x, y, _ = R3.gens()
    rep = is_regular_sequence([x, x * y])
    assert rep.status == "refuted"
    assert "unit" in rep.witness["reason"]


def test_regular_sequence_inconclusive_when_the_colon_grows_locally():
    # (xy) : xz = (y): larger than (xy), but inside the maximal ideal.
    x, y, z = R3.gens()
    rep = is_regular_sequence([x * y, x * z])
    assert rep.status == "inconclusive"
    assert rep.witness == {
        "reason": "global colon grows but stays inside the maximal ideal",
        "index": 1, "steps": [{"index": 0, "colon_equals_prefix": True}]}


def test_regular_sequence_zero_and_unit_elements():
    x, _, _ = R3.gens()
    rep = is_regular_sequence([x, R3.zero])
    assert rep.status == "refuted"
    assert rep.witness["index"] == 1
    rep2 = is_regular_sequence([R3.one + x])
    assert rep2.status == "refuted"


def test_syzygetic_obstruction_m2():
    r2 = Ring(QQ, ("x", "y"))
    x, y = r2.gens()
    J = Ideal(r2, [x**2, y**2])
    I = Ideal(r2, [x**2, x * y, y**2])
    rep = syzygetic_obstruction(J, x * y, I)
    assert rep.status == "refuted"
    assert rep.witness["path"] == "fast"
    assert rep.witness["f_squared_in_HI"] is True


def test_syzygetic_obstruction_principal_inconclusive():
    r2 = Ring(QQ, ("x", "y"))
    x, _ = r2.gens()
    rep = syzygetic_obstruction(Ideal(r2, []), x, Ideal(r2, [x]))
    assert rep.status == "inconclusive"
    assert rep.witness["reason"] == "no obstruction found"


def test_syzygetic_obstruction_presentation_mismatch():
    r2 = Ring(QQ, ("x", "y"))
    x, y = r2.gens()
    rep = syzygetic_obstruction(Ideal(r2, [x]), y, Ideal(r2, [x]))
    assert rep.status == "inconclusive"
    assert "differs" in rep.witness["reason"]
    with pytest.raises(ValueError):
        syzygetic_obstruction(Ideal(r2, [x]), r2.zero, Ideal(r2, [x]))


def test_syzygetic_obstruction_colon_scan():
    r2 = Ring(QQ, ("x", "y"))
    x, y = r2.gens()
    H = Ideal(r2, [x**3, y**3])
    f = x * y**2
    rep = syzygetic_obstruction(H, f, H + Ideal(r2, [f]))
    assert rep.status == "refuted"
    assert rep.witness["path"] == "colon-scan"
    assert rep.witness["element"] == "x"


def test_syzygetic_obstruction_bogus_lift_cannot_prove_membership():
    # f^2 = x^2*y^4 is not in H*I, and a lift that does not multiply out
    # to it must leave the verdict to the colon scan, as with no lift.
    r2 = Ring(QQ, ("x", "y"))
    x, y = r2.gens()
    H = Ideal(r2, [x**3, y**3])
    f = x * y**2
    I = H + Ideal(r2, [f])
    assert not (H * I).contains(f * f)
    without = syzygetic_obstruction(H, f, I)
    for lift in ([(x**2 * y, 1, 1)], [(r2.one, 0, 2), (-x, 1, 2)], []):
        rep = syzygetic_obstruction(H, f, I, lift=lift)
        assert (rep.status, rep.witness) == (without.status, without.witness)
        assert rep.witness["path"] == "colon-scan"
    with pytest.raises(ValueError):
        syzygetic_obstruction(H, f, I, lift=[(r2.one, 2, 0)])


def test_smallest_valuation_vector():
    got = smallest_valuation_vector(
        [(-5, 0, 3, 0), (-2, -3, 0, 3), (-5, 4, 0, 0)], 4)
    assert tuple(got) == (12, 15, 20, 23)
    # rank 4: the null vector comes from 4x4 minors of the pivot rows
    rels = [(-2, 1, 0, 0, 0), (-3, 0, 1, 0, 0), (0, 0, -4, 3, 0),
            (-5, 0, 0, 0, 1), (-7, 1, 0, 0, 1)]
    assert tuple(smallest_valuation_vector(rels, 5)) == (1, 2, 3, 4, 5)
    assert tuple(smallest_valuation_vector([(-4, 3)], 2)) == (3, 4)
    assert tuple(smallest_valuation_vector([], 1)) == (1,)
    # both signed minors are -1, so the solution is flipped to positive
    assert tuple(smallest_valuation_vector(((1, -1),), 2)) == (1, 1)


def test_smallest_valuation_vector_primitive():
    got = smallest_valuation_vector([(-2, 1)], 2)
    assert tuple(got) == (1, 2)
    got2 = smallest_valuation_vector([(-6, 4)], 2)
    assert tuple(got2) == (2, 3)


def test_smallest_valuation_vector_errors():
    with pytest.raises(ValueError):
        smallest_valuation_vector([(1, -1)], 3)  # arity mismatch
    with pytest.raises(ValueError):
        smallest_valuation_vector([], 2)  # cone dimension 2
    with pytest.raises(ValueError):
        smallest_valuation_vector([(1, 1)], 2)  # no positive solution


def test_reports_serialize():
    _, cd = lemma3_complex()
    rep = verify_complex(cd)
    d = rep.as_dict()
    assert set(d) == {"claim", "status", "witness", "anchor", "millis"}
    assert isinstance(d["millis"], int)
    # a report built without a witness gets a dict of its own
    a, b = CertificateReport("a", "verified"), CertificateReport("b", "refuted")
    a.witness["k"] = 1
    assert b.witness == {} and (b.anchor, b.millis) == ("", 0)
