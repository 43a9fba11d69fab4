"""Embedded verification corpus: text fidelity, frozen witnesses, bundles."""

import itertools
import time

import pytest

from idealkit import groebner, idealops
from idealkit.certify import syzygetic_obstruction
from idealkit.corpus import (
    CORPUS,
    L3_MINORS,
    L3_STANDARD_MONOMIALS,
    L4_MINORS,
    L4_VALUATION_DISPUTED,
    L4_VALUATION_EXPECTED,
    L4_VALUATION_RELATIONS,
    TORIC_EXPONENTS,
    _minor_match_report,
    _slice_report,
    verify_lemma,
)
from idealkit.fields import GF, QQ
from idealkit.idealops import Ideal, kernel_of_map
from idealkit.parse import parse_session
from test_parse import render_session


def test_corpus_ids_and_claims():
    assert set(CORPUS) == {"lemma2", "lemma3", "lemma4", "huneke"}
    assert CORPUS["lemma2"].claims == (
        "element_outside_subideal", "square_in_product",
        "colon_strictness", "not_syzygetic")
    assert CORPUS["lemma3"].claims == (
        "minors_match", "complex", "acyclic", "grade_simplification",
        "minimal", "not_linear_type", "dimension", "colength_slice")
    assert CORPUS["lemma4"].claims == (
        "complex", "minors_located", "acyclic", "minimal", "dimension",
        "colength_slice", "square_identity", "not_syzygetic",
        "toric_kernel", "valuation_vector")
    assert CORPUS["huneke"].claims == (
        "kernel_sound", "dimension", "minimal_generators", "not_linear_type")


@pytest.mark.parametrize("lemma_id", sorted(CORPUS))
def test_session_texts_round_trip(lemma_id):
    entry = CORPUS[lemma_id]
    s = parse_session(entry.text)
    again = parse_session(render_session(s))
    assert again.ring == s.ring
    assert again.polys == s.polys
    assert {k: list(v) for k, v in again.ideals.items()} == \
        {k: list(v) for k, v in s.ideals.items()}
    assert {k: v.rows for k, v in again.matrices.items()} == \
        {k: v.rows for k, v in s.matrices.items()}


def test_lemma2_session_content():
    s = CORPUS["lemma2"].session()
    x, y = s.ring.gens()
    assert s.polys["f"] == x * y
    assert list(s.ideals["J"]) == [x**2, y**2]
    assert list(s.ideals["I"]) == [x**2, x * y, y**2]


def test_lemma3_session_content():
    s = CORPUS["lemma3"].session()
    x, y, z = s.ring.gens()
    assert s.polys["f1"] == y**3 - x**4
    assert s.polys["f2"] == x * y * z - z**3 + x**4 - x * y**3
    assert s.polys["f3"] == x**2 * y + y**2 * z - x * z**2 - x**3 * y
    assert s.polys["f4"] == x * y**2 - y * z**2 - x**2 * y**2 + x**3 * z
    assert list(s.ideals["I"]) == [s.polys[f"f{i}"] for i in (1, 2, 3, 4)]
    assert [list(r) for r in s.matrices["phi1"].rows] == \
        [[s.polys[f"f{i}"] for i in (1, 2, 3, 4)]]
    assert [list(r) for r in s.matrices["phi2"].rows] == [
        [x, x * y, z],
        [x, y, s.ring.zero],
        [-z, -(x**2), -y],
        [-y, -z, x],
    ]


def test_lemma4_session_content():
    s = CORPUS["lemma4"].session()
    x, y, z, t = s.ring.gens()
    assert s.polys["f1"] == y * z - x * t
    assert s.polys["f2"] == z**3 - x**5
    assert s.polys["f3"] == z**2 * t - x**4 * y
    assert s.polys["f4"] == z * t**2 - x**3 * y**2
    assert s.polys["f5"] == t**3 - x**2 * y**3
    assert s.polys["f6"] == y**4 - x**5
    assert s.polys["f7"] == y**3 * t - x**4 * z
    assert s.polys["f8"] == y**2 * t**2 - x**3 * z**2
    assert s.polys["g1"] == y**10 - 2 * x**5 * y**6 + x**10 * y**2
    assert s.polys["g2"] == z**8 - 2 * x**5 * z**5 + x**10 * z**2
    assert s.polys["h1"] == y**6 - x**5 * y**2
    assert s.polys["h2"] == z**5 - x**5 * z**2
    assert s.polys["h3"] == t**5 - x**2 * y**3 * t**2
    assert list(s.ideals["I"]) == [s.polys[f"f{i}"] for i in range(1, 9)]
    assert list(s.ideals["H"]) == [s.polys[f"f{i}"] for i in range(1, 8)]
    assert s.matrices["phi1"].shape == (1, 8)
    assert s.matrices["phi2"].shape == (8, 12)
    assert s.matrices["phi3"].shape == (12, 5)
    # g and h polynomials factor as announced
    assert s.polys["g1"] == (y**5 - x**5 * y) ** 2
    assert s.polys["g2"] == (z**4 - x**5 * z) ** 2
    assert s.polys["h1"] == y**2 * (y**4 - x**5)
    assert s.polys["h2"] == z**2 * (z**3 - x**5)
    assert s.polys["h3"] == t**2 * (t**3 - x**2 * y**3)


def test_huneke_session_content():
    s = CORPUS["huneke"].session()
    (u,) = s.ring.gens()
    assert s.ring.names == ("s",)
    assert s.polys["cx"] == u**6
    assert s.polys["cy"] == u**7 + u**10
    assert s.polys["cz"] == u**8


def test_lemma3_minor_assignments():
    s = CORPUS["lemma3"].session()
    phi2 = s.matrices["phi2"]
    for name, rows, cols, sign in L3_MINORS:
        assert phi2.minor(rows, cols) == sign * s.polys[name]


def test_lemma4_minor_assignments():
    s = CORPUS["lemma4"].session()
    for mat, name, rows, cols, sign in L4_MINORS:
        assert s.matrices[mat].minor(rows, cols) == sign * s.polys[name]


def test_minor_match_report_refuses_a_sign_of_zero():
    # Each assignment goes through a MinorWitness, so a sign of 0 is an
    # error here as in `certify`, not a request to negate.
    s = CORPUS["lemma3"].session()
    f1 = next(a for a in L3_MINORS if a[0] == "f1")
    with pytest.raises(ValueError, match="minor sign must be 1 or -1"):
        _minor_match_report("minors_match", s.matrices,
                            [("phi2",) + f1[:-1] + (0,)], s.polys, "")


def test_slice_of_infinite_colength_is_refuted():
    s = CORPUS["lemma3"].session()
    I = Ideal(s.ring, [s.ring.var("x")])
    rep = _slice_report("colength_slice", I, s.ring.var("y"),
                        L3_STANDARD_MONOMIALS, "")
    assert (rep.status, rep.witness) == ("refuted", {"colength": "infinite"})


def test_frozen_valuation_data():
    assert L4_VALUATION_EXPECTED == (12, 15, 20, 23)
    assert L4_VALUATION_DISPUTED == (12, 15, 29, 23)
    assert TORIC_EXPONENTS == L4_VALUATION_EXPECTED
    for rel in L4_VALUATION_RELATIONS:
        assert sum(c * v for c, v in zip(rel, L4_VALUATION_EXPECTED)) == 0
    # the disputed vector breaks at least one relation
    assert any(
        sum(c * v for c, v in zip(rel, L4_VALUATION_DISPUTED)) != 0
        for rel in L4_VALUATION_RELATIONS)


def test_l3_standard_monomials_frozen():
    assert set(L3_STANDARD_MONOMIALS) == {"1", "y", "z", "y^2", "y*z", "z^2"}


@pytest.mark.parametrize("lemma_id", ["lemma2", "lemma3", "huneke"])
def test_bundles_all_verified(lemma_id):
    reports = verify_lemma(lemma_id)
    assert [r.claim for r in reports] == list(CORPUS[lemma_id].claims)
    assert all(r.status == "verified" for r in reports)
    for r in reports:
        assert r.anchor
        assert isinstance(r.witness, dict)


def test_each_claim_is_timed_once(monkeypatch):
    # With a clock that advances 0.25 s per read, a claim reads 250 ms only
    # if it is one interval of verify_lemma and nothing under it reads the
    # clock.
    clock = itertools.count(0.0, 0.25)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    for lemma_id, entry in CORPUS.items():
        reports = verify_lemma(lemma_id, QQ)
        assert [r.claim for r in reports] == list(entry.claims)
        assert [r.millis for r in reports] == [250] * len(reports), lemma_id


def test_unknown_lemma_id():
    with pytest.raises(KeyError):
        verify_lemma("lemma99")


def test_lemma2_prime_field():
    reports = verify_lemma("lemma2", field=GF(7))
    assert all(r.status == "verified" for r in reports)


def test_negated_claims_carry_inner_property():
    by_claim = {r.claim: r for r in verify_lemma("lemma2")}
    rep = by_claim["not_syzygetic"]
    assert rep.status == "verified"
    assert rep.witness["refuted_property"] == "syzygetic"


def huneke_kernel_gf2():
    """The kernel of s -> (s^6, s^7 + s^10, s^8) over GF(2), in k[x, y, z]."""
    s = CORPUS["huneke"].session(GF(2))
    return kernel_of_map([s.polys[n] for n in ("cx", "cy", "cz")],
                         ("x", "y", "z"))


def test_huneke_over_gf2_is_a_complete_intersection():
    """Over GF(2) the `minimal_generators` claim is correctly refuted.

    In characteristic 2, y^2 = s^14 + s^20 = xz + x^2*z, so the kernel is
    (z^3 + x^4, y^2 + x*z + x^2*z), a complete intersection with two
    generators at the origin. Huneke's four generators need a
    characteristic other than 2.
    """
    kernel = huneke_kernel_gf2()
    x, y, z = kernel.ring.gens()
    assert kernel.equals(Ideal(kernel.ring,
                               [z**3 + x**4, y**2 + x * z + x**2 * z]))
    assert kernel.min_generators_at_origin() == 2
    by_claim = {r.claim: r for r in verify_lemma("huneke", GF(2))}
    report = by_claim["minimal_generators"]
    assert report.status == "refuted"
    assert report.witness["mu"] == 2


@pytest.fixture
def basis_sizes(monkeypatch):
    """Input counts of every `groebner._basis` call, in call order."""
    sizes = []
    real = groebner._basis

    def spy(polys, *args, **kwargs):
        polys = list(polys)
        sizes.append(len(polys))
        return real(polys, *args, **kwargs)

    monkeypatch.setattr(groebner, "_basis", spy)
    monkeypatch.setattr(idealops, "_basis", spy)
    return sizes


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "fp:7"])
def test_lemma4_builds_no_basis_of_the_product(basis_sizes, field):
    # not_syzygetic takes f8^2 in H*I from the square identity's lift, so
    # no basis of the 56 products H*I is built; of the bases the bundle
    # still builds, the largest has 9 inputs.
    reports = verify_lemma("lemma4", field)
    assert all(r.status == "verified" for r in reports)
    assert basis_sizes and max(basis_sizes) < 56


def _lemma4_obstruction_data(field):
    s = CORPUS["lemma4"].session(field)
    x, y, z, t = s.ring.gens()
    H = Ideal(s.ring, s.ideals["H"])
    I = Ideal(s.ring, s.ideals["I"])
    # f8^2 = x^2*y*z*t*f1^2 - x^4*f1*f5 - x^2*f2*f7 + t*f5*f6 + x^2*f6*f7,
    # as terms (c, i, j) of c * H.gens[i] * I.gens[j]
    lift = [(x**2 * y * z * t, 0, 0), (-x**4, 0, 4), (-x**2, 1, 6),
            (t, 4, 5), (x**2, 5, 6)]
    return H, s.polys["f8"], I, lift


def _bad_cofactor(lift):
    c, i, j = lift[0]
    return [(2 * c, i, j)] + lift[1:]


def _bad_index(lift):
    c, i, _ = lift[2]
    return lift[:2] + [(c, i, 7)] + lift[3:]   # f2*f8 in place of f2*f7


@pytest.mark.parametrize("corrupt", [_bad_cofactor, _bad_index],
                         ids=["cofactor", "index"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "fp:7"])
def test_lemma4_corrupted_lift_falls_back_to_the_basis(
        basis_sizes, field, corrupt):
    # A lift that does not multiply out to f8^2 proves nothing: the verdict
    # and witness are those of the call without a lift, reached through
    # the basis of H*I.
    H, f8, I, lift = _lemma4_obstruction_data(field)
    without = syzygetic_obstruction(H, f8, I)
    del basis_sizes[:]
    report = syzygetic_obstruction(H, f8, I, lift=corrupt(lift))
    assert 56 in basis_sizes
    assert (report.status, report.witness) == (without.status,
                                               without.witness)
