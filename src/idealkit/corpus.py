"""Embedded worked examples and their end-to-end verification bundles.

Each entry carries a session text (the rings, generators, and matrices
written out term by term) plus a bundle generator that runs the full
certificate chain for that example. Bundles never raise on a failed
check; they yield reports whose status records what happened, so the
same chain can be replayed over other coefficient fields.

Bundles read no clock. `verify_lemma` times each claim, from the previous
report to the one it yields, and stores that in the report's `millis`; a
report built by calling a `certify` function directly keeps `millis` 0.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator

from .certify import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    CertificateReport,
    ComplexData,
    GradeCertificate,
    MinorWitness,
    buchsbaum_eisenbud,
    linear_type_obstruction,
    resolution_minimal,
    smallest_valuation_vector,
    syzygetic_obstruction,
    verify_complex,
)
from .groebner import normal_form
from .idealops import Ideal, kernel_of_map
from .parse import SessionInput, parse_session
from .poly import Ring

LEMMA2_TEXT = """\
ring Q[x,y];
poly f = x*y;
ideal J = x^2, y^2;
ideal I = x^2, x*y, y^2;
"""

LEMMA3_TEXT = """\
ring Q[x,y,z];
poly f1 = y^3 - x^4;
poly f2 = x*y*z - z^3 + x^4 - x*y^3;
poly f3 = x^2*y + y^2*z - x*z^2 - x^3*y;
poly f4 = x*y^2 - y*z^2 - x^2*y^2 + x^3*z;
ideal I = f1, f2, f3, f4;
matrix phi1 1x4 = [ f1, f2, f3, f4 ];
matrix phi2 4x3 = [
  x, x*y, z ;
  x, y, 0 ;
  -z, -x^2, -y ;
  -y, -z, x
];
"""

LEMMA4_TEXT = """\
ring Q[x,y,z,t];
poly f1 = y*z - x*t;
poly f2 = z^3 - x^5;
poly f3 = z^2*t - x^4*y;
poly f4 = z*t^2 - x^3*y^2;
poly f5 = t^3 - x^2*y^3;
poly f6 = y^4 - x^5;
poly f7 = y^3*t - x^4*z;
poly f8 = y^2*t^2 - x^3*z^2;
poly g1 = y^10 - 2*x^5*y^6 + x^10*y^2;
poly g2 = z^8 - 2*x^5*z^5 + x^10*z^2;
poly h1 = y^6 - x^5*y^2;
poly h2 = z^5 - x^5*z^2;
poly h3 = t^5 - x^2*y^3*t^2;
ideal I = f1, f2, f3, f4, f5, f6, f7, f8;
ideal H = f1, f2, f3, f4, f5, f6, f7;
matrix phi1 1x8 = [ f1, f2, f3, f4, f5, f6, f7, f8 ];
matrix phi2 8x12 = [
  y^2*t, y^3, t^2, z*t, z^2, x^3*z, x^4, -y*t^2, x^2*y^2, x^3*y, x^4, 0 ;
  0, 0, 0, 0, -y, 0, 0, x^3, 0, 0, -t, 0 ;
  0, 0, 0, -y, x, 0, 0, 0, 0, -t, z, x^3 ;
  0, 0, -y, x, 0, 0, 0, 0, -t, z, 0, 0 ;
  0, 0, x, 0, 0, 0, 0, -x*y, z, 0, 0, -y^2 ;
  0, -z, 0, 0, 0, 0, -t, -x^3, 0, 0, 0, -x^2*y ;
  -z, x, 0, 0, 0, -t, y, 0, 0, 0, 0, 0 ;
  x, 0, 0, 0, 0, y, 0, z, 0, 0, 0, t
];
matrix phi3 12x5 = [
  -t, 0, 0, -y, 0 ;
  0, 0, 0, t, -x^2*y ;
  0, 0, -z, 0, -y*t ;
  0, -z, t, 0, 0 ;
  -x^3, t, 0, 0, 0 ;
  z, 0, 0, x, 0 ;
  0, 0, 0, -z, x^3 ;
  -y, 0, 0, 0, -t ;
  0, 0, x, 0, y^2 ;
  0, x, -y, 0, 0 ;
  0, -y, 0, 0, -x^3 ;
  x, 0, 0, 0, z
];
"""

HUNEKE_TEXT = """\
ring Q[s];
poly cx = s^6;
poly cy = s^7 + s^10;
poly cz = s^8;
"""

# Signed row/column selections locating each named generator as a minor.
L3_MINORS = (
    ("f1", (1, 2, 3), (0, 1, 2), 1),
    ("f2", (0, 2, 3), (0, 1, 2), -1),
    ("f3", (0, 1, 3), (0, 1, 2), 1),
    ("f4", (0, 1, 2), (0, 1, 2), -1),
)
L4_MINORS = (
    ("phi2", "g1", (0, 1, 2, 3, 4, 6, 7), (1, 2, 3, 4, 5, 6, 11), 1),
    ("phi2", "g2", (0, 2, 3, 4, 5, 6, 7), (0, 1, 4, 7, 8, 9, 10), -1),
    ("phi3", "h1", (0, 7, 8, 9, 10), (0, 1, 2, 3, 4), 1),
    ("phi3", "h2", (2, 3, 5, 6, 11), (0, 1, 2, 3, 4), 1),
    ("phi3", "h3", (0, 1, 3, 4, 7), (0, 1, 2, 3, 4), -1),
)

# Valuation relations: coefficient rows a with a . (v_x, v_y, v_z, v_t) = 0,
# read off the pure binomials z^3 - x^5, t^3 - x^2*y^3, y^4 - x^5.
L4_VALUATION_RELATIONS = ((-5, 0, 3, 0), (-2, -3, 0, 3), (-5, 4, 0, 0))
L4_VALUATION_TEXT = ("3*v_z = 5*v_x", "3*v_t = 2*v_x + 3*v_y", "4*v_y = 5*v_x")
L4_VALUATION_EXPECTED = (12, 15, 20, 23)
# A variant of the same vector that sometimes gets quoted; it violates the
# first relation (3*29 = 87, 5*12 = 60), so the bundle flags it.
L4_VALUATION_DISPUTED = (12, 15, 29, 23)

L3_STANDARD_MONOMIALS = ("1", "z", "y", "z^2", "y*z", "y^2")
L4_STANDARD_MONOMIALS = (
    "1", "t", "z", "y", "t^2", "z*t", "y*t", "z^2", "y^2",
    "y*t^2", "y^2*t", "y^3",
)

TORIC_EXPONENTS = (12, 15, 20, 23)


class LemmaCorpusEntry:
    """One embedded example: session text, its claim chain, and the bundle
    that yields the chain's reports one by one. Its `CORPUS` key is its id."""

    def __init__(self, text: str, claims: tuple,
                 bundle: Callable[[SessionInput], Iterator[CertificateReport]]):
        self.text = text
        self.claims = claims
        self.bundle = bundle

    def session(self, field_override=None) -> SessionInput:
        return parse_session(self.text, field_override)


def _negate(inner: CertificateReport, claim: str,
            anchor: str) -> CertificateReport:
    """Rephrase an obstruction report as the negated property claim."""
    flip = {REFUTED: VERIFIED, VERIFIED: REFUTED,
            INCONCLUSIVE: INCONCLUSIVE}
    witness = dict(inner.witness)
    witness["refuted_property"] = inner.claim
    return CertificateReport(claim, flip[inner.status], witness, anchor)


def _verify_lemma2(session: SessionInput):
    ring = session.ring
    f = session.polys["f"]
    J = Ideal(ring, session.ideals["J"])
    I = Ideal(ring, session.ideals["I"])

    remainder = normal_form(f, J.groebner())
    outside_global = not remainder.is_zero()
    outside_local = J.locally_contains_at_origin(f) is None
    yield CertificateReport(
        "element_outside_subideal",
        VERIFIED if outside_global and outside_local else REFUTED,
        {"normal_form": str(remainder),
         "outside_globally": outside_global,
         "outside_at_origin": outside_local},
        "x*y lies outside (x^2, y^2), globally and after localizing "
        "at the origin")

    JI = J * I
    witness = JI.membership_witness(f * f)
    ok = witness is not None
    combo = {}
    if ok:
        quotients, basis = witness
        combo = {str(b): str(q) for b, q in zip(basis, quotients)
                 if not q.is_zero()}
    yield CertificateReport(
        "square_in_product", VERIFIED if ok else REFUTED,
        {"membership": ok, "combination": combo},
        "(x*y)^2 lies in the product ideal (x^2, y^2) * (x^2, x*y, y^2)")

    quotient = J.colon(f)
    colon = quotient.groebner()
    colon_in_m = bool(colon) and quotient.unit_at_origin() is None
    unit_colon = not JI.colon(f * f).is_proper()
    yield CertificateReport(
        "colon_strictness", VERIFIED if colon_in_m and unit_colon else REFUTED,
        {"colon_basis": [str(g) for g in colon],
         "colon_inside_maximal_ideal": colon_in_m,
         "product_colon_is_unit_ideal": unit_colon},
        "(J : x*y) stays inside (x, y) while (J*I : (x*y)^2) is the "
        "unit ideal")

    yield _negate(
        syzygetic_obstruction(J, f, I),
        "not_syzygetic",
        "the colon jump (J : x*y) != (J*I : (x*y)^2) at the origin "
        "refutes syzygetic-ness of the squared maximal ideal")


def _minor_hints(table, *names):
    """The MinorWitness of each named generator in L3_MINORS or L4_MINORS."""
    found = {row[-4]: MinorWitness(*row[-3:]) for row in table}
    return tuple(found[name] for name in names)


def _minor_match_report(claim, matrices, assignments, polys, anchor):
    checked = []
    ok = True
    for mat_name, poly_name, *located in assignments:
        hint = MinorWitness(*located)
        match = hint.signed_minor(matrices[mat_name]) == polys[poly_name]
        ok = ok and match
        checked.append({
            "generator": poly_name, "matrix": mat_name,
            "rows": list(hint.rows), "cols": list(hint.cols),
            "sign": hint.sign, "match": match,
        })
    return CertificateReport(claim, VERIFIED if ok else REFUTED,
                             {"assignments": checked}, anchor)


def _slice_report(claim, I, aux, expected_monomials, anchor):
    """Colength and standard monomials of I + (aux)."""
    sliced = Ideal(I.ring, list(I.gens) + [aux])
    std = sliced.standard_monomials()
    if std is None:
        return CertificateReport(claim, REFUTED,
                                 {"colength": "infinite"}, anchor)
    got = [str(m) for m in std]
    ok = sorted(got) == sorted(expected_monomials)
    return CertificateReport(claim, VERIFIED if ok else REFUTED,
                             {"colength": len(got), "standard_monomials": got,
                              "expected_count": len(expected_monomials)},
                             anchor)


def _dimension_report(I: Ideal, expected: int, anchor: str):
    dim = I.krull_dim_quotient()
    return CertificateReport(
        "dimension", VERIFIED if dim == expected else REFUTED,
        {"dim": dim, "expected": expected}, anchor)


def _verify_lemma3(session: SessionInput):
    ring = session.ring
    polys = session.polys
    x, y, z = (ring.var(n) for n in ("x", "y", "z"))
    I = Ideal(ring, session.ideals["I"])
    cd = ComplexData([session.matrices["phi1"], session.matrices["phi2"]],
                     [1, 3])
    rhs = Ideal(ring, [x, y**3, z**3])

    yield _minor_match_report(
        "minors_match", session.matrices,
        tuple(("phi2",) + a for a in L3_MINORS), polys,
        "the four 3x3 minors of the 4x3 presentation matrix are the "
        "four generators up to sign")

    yield verify_complex(
        cd, "complex",
        "the composite of the two differentials is the zero matrix")

    certs = {
        1: GradeCertificate(1, (polys["f1"],), (MinorWitness((0,), (0,)),)),
        2: GradeCertificate(
            2, (polys["f1"], polys["f2"]), _minor_hints(L3_MINORS, "f1", "f2"),
            aux=x, expected=rhs),
    }
    yield buchsbaum_eisenbud(
        cd, certs, "acyclic",
        "rank and grade clauses hold with expected ranks (1, 3)")

    lhs = Ideal(ring, [polys["f1"], polys["f2"], x])
    equal = lhs.equals(rhs)
    yield CertificateReport(
        "grade_simplification", VERIFIED if equal else REFUTED,
        {"lhs_basis": [str(g) for g in lhs.groebner()],
         "rhs_basis": [str(g) for g in rhs.groebner()]},
        "(f1, f2, x) = (x, y^3, z^3) as ideals")

    minimal = resolution_minimal(
        cd, "minimal",
        "every differential entry vanishes at the origin, so the "
        "resolution is minimal and mu equals the generator count")
    yield minimal

    mu = minimal.witness.get("mu", 0) if minimal.verified else 0
    yield _negate(
        linear_type_obstruction(mu, ring.nvars),
        "not_linear_type",
        "an ideal of linear type needs at most dim-many generators; "
        "mu = 4 > 3 rules it out")

    yield _dimension_report(
        I, 1, "the quotient by the ideal has Krull dimension 1")

    yield _slice_report(
        "colength_slice", I, x, L3_STANDARD_MONOMIALS,
        "the quotient by (x) + I is a 6-dimensional vector space "
        "spanned by 1, y, z, y^2, y*z, z^2")


def _verify_lemma4(session: SessionInput):
    ring = session.ring
    p = session.polys
    x, y, z, t = (ring.var(n) for n in ("x", "y", "z", "t"))
    I = Ideal(ring, session.ideals["I"])
    H = Ideal(ring, session.ideals["H"])
    cd = ComplexData(
        [session.matrices["phi1"], session.matrices["phi2"],
         session.matrices["phi3"]], [1, 7, 5])

    yield verify_complex(
        cd, "complex",
        "both consecutive composites of the three differentials vanish")

    yield _minor_match_report(
        "minors_located", session.matrices, L4_MINORS, p,
        "g1, g2 appear as signed 7x7 minors of the second differential "
        "and h1, h2, h3 as signed 5x5 minors of the third")

    certs = {
        1: GradeCertificate(
            1, (p["f2"], p["f5"], p["f6"]),
            (MinorWitness((0,), (1,)), MinorWitness((0,), (4,)),
             MinorWitness((0,), (5,))),
            aux=x, expected=Ideal(ring, [x, y**4, z**3, t**3])),
        2: GradeCertificate(
            2, (p["g1"], p["g2"]), _minor_hints(L4_MINORS, "g1", "g2"),
            aux=x, expected=Ideal(ring, [x, y**10, z**8])),
        3: GradeCertificate(
            3, (p["h1"], p["h2"], p["h3"]),
            _minor_hints(L4_MINORS, "h1", "h2", "h3"),
            aux=x, expected=Ideal(ring, [x, y**6, z**5, t**5])),
    }
    yield buchsbaum_eisenbud(
        cd, certs, "acyclic",
        "rank and grade clauses hold with expected ranks (1, 7, 5); "
        "in particular all 8x8 minors of the middle differential vanish")

    minimal = resolution_minimal(
        cd, "minimal",
        "every differential entry vanishes at the origin, so the "
        "resolution is minimal and mu = 8")
    yield minimal

    yield _dimension_report(
        I, 1, "the quotient by the ideal has Krull dimension 1")

    yield _slice_report(
        "colength_slice", I, x, L4_STANDARD_MONOMIALS,
        "the quotient by (x) + I is a 12-dimensional vector space "
        "spanned by 1, y, y*t, y*t^2, y^2, y^2*t, y^3, z, z*t, z^2, "
        "t, t^2")

    f8 = p["f8"]
    # f8^2 as terms (c, i, j) of c * f_i * f_j, with f_i in H = (f1..f7)
    # and f_j in I = (f1..f8): the same list is the lift of f8^2 in H*I.
    square = ((x**2 * y * z * t, 1, 1), (-x**4, 1, 5), (-x**2, 2, 7),
              (t, 5, 6), (x**2, 6, 7))
    combo = sum((c * p[f"f{i}"] * p[f"f{j}"] for c, i, j in square),
                ring.zero)
    yield CertificateReport(
        "square_identity",
        VERIFIED if (f8 * f8 - combo).is_zero() else REFUTED,
        {"identity": "f8^2 = x^2*y*z*t*f1^2 - x^4*f1*f5 - x^2*f2*f7 "
                      "+ t*f5*f6 + x^2*f6*f7"},
        "f8^2 decomposes exactly as the stated combination of products "
        "f_i*f_j, hence f8^2 lies in H*I")

    yield _negate(
        syzygetic_obstruction(
            H, f8, I, lift=[(c, i - 1, j - 1) for c, i, j in square]),
        "not_syzygetic",
        "(H : f8) stays inside the maximal ideal while f8^2 already "
        "lies in H*I, so the colon jumps and the ideal is not syzygetic")

    sring = Ring(ring.field, ("s",))
    s = sring.var(0)
    kernel = kernel_of_map([s**e for e in TORIC_EXPONENTS],
                           ("x", "y", "z", "t"))
    equal = kernel.equals(I)
    yield CertificateReport(
        "toric_kernel", VERIFIED if equal else REFUTED,
        {"exponents": list(TORIC_EXPONENTS),
         "kernel_basis_size": len(kernel.gens),
         "equals_ideal": equal},
        "the kernel of x,y,z,t -> s^12, s^15, s^20, s^23 equals the "
        "ideal of the eight generators")

    vector = smallest_valuation_vector(L4_VALUATION_RELATIONS, 4)
    own, disputed = (
        [sum(a * v for a, v in zip(rel, vec)) for rel in L4_VALUATION_RELATIONS]
        for vec in (vector, L4_VALUATION_DISPUTED))
    disputed_fails = [text for text, d in zip(L4_VALUATION_TEXT, disputed) if d]
    ok = (vector == L4_VALUATION_EXPECTED and not any(own)
          and bool(disputed_fails))
    yield CertificateReport(
        "valuation_vector", VERIFIED if ok else REFUTED,
        {"relations": list(L4_VALUATION_TEXT),
         "vector": list(vector),
         "also_reported": list(L4_VALUATION_DISPUTED),
         "also_reported_violates": disputed_fails},
        "the relations force (12, 15, 20, 23); the value (12, 15, 29, "
        "23) reported elsewhere violates 3*v_z = 5*v_x")


def _verify_huneke(session: SessionInput):
    ring = session.ring
    images = [session.polys[n] for n in ("cx", "cy", "cz")]

    kernel = kernel_of_map(images, ("x", "y", "z"))
    basis = kernel.groebner()
    sound = bool(basis) and all(
        g.substitute(images, ring).is_zero() for g in basis)
    yield CertificateReport(
        "kernel_sound", VERIFIED if sound else REFUTED,
        {"basis_size": len(basis),
         "substitution_vanishes": sound},
        "every kernel basis element vanishes under x,y,z -> s^6, "
        "s^7 + s^10, s^8")

    yield _dimension_report(
        kernel, 1, "the coordinate ring of the curve has dimension 1")

    mu = kernel.min_generators_at_origin()
    yield CertificateReport(
        "minimal_generators", VERIFIED if mu == 4 else REFUTED,
        {"mu": mu, "expected": 4},
        "the kernel needs exactly four generators at the origin")

    yield _negate(
        linear_type_obstruction(mu, kernel.ring.nvars),
        "not_linear_type",
        "mu = 4 exceeds the ambient dimension 3, which no ideal of "
        "linear type allows")


CORPUS = {
    "lemma2": LemmaCorpusEntry(
        LEMMA2_TEXT,
        ("element_outside_subideal", "square_in_product",
         "colon_strictness", "not_syzygetic"),
        _verify_lemma2),
    "lemma3": LemmaCorpusEntry(
        LEMMA3_TEXT,
        ("minors_match", "complex", "acyclic", "grade_simplification",
         "minimal", "not_linear_type", "dimension", "colength_slice"),
        _verify_lemma3),
    "lemma4": LemmaCorpusEntry(
        LEMMA4_TEXT,
        ("complex", "minors_located", "acyclic", "minimal", "dimension",
         "colength_slice", "square_identity", "not_syzygetic",
         "toric_kernel", "valuation_vector"),
        _verify_lemma4),
    "huneke": LemmaCorpusEntry(
        HUNEKE_TEXT,
        ("kernel_sound", "dimension", "minimal_generators",
         "not_linear_type"),
        _verify_huneke),
}


def verify_lemma(lemma_id: str, field=None):
    """Run the certificate chain for one corpus entry.

    Returns the list of CertificateReport in chain order. `field`
    overrides the session's declared coefficient field. Each report's
    `millis` is the time since the previous report was yielded, the first
    counted from the end of parsing the session.
    """
    if lemma_id not in CORPUS:
        raise KeyError(
            f"unknown lemma {lemma_id!r}; choose from "
            f"{sorted(CORPUS)}")
    entry = CORPUS[lemma_id]
    session = entry.session(field)
    reports = []
    start = time.perf_counter()
    for report in entry.bundle(session):
        end = time.perf_counter()
        report.millis = int((end - start) * 1000)
        reports.append(report)
        start = end
    return reports
