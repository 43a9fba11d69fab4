"""Certificate layer over the ideal engine.

Every public function returns a CertificateReport whose status is one of
`verified`, `refuted`, or `inconclusive` and whose witness payload is enough
to replay the verdict: membership quotients, colon bases, minor index sets,
and regular-sequence steps. Grade bounds are only ever certified through
explicit regular sequences. A rank is decided by one fraction-free
elimination of the matrix (`PolyMatrix.rank_profile`) unless a hinted nonzero
minor already has the largest possible size; every minor a witness names is
an explicit index set.

No function here reads a clock: a report's `millis` stays 0 unless the
runner that asked for the claim (`corpus.verify_lemma`, or the CLI's `run`)
sets it to the time the claim took.
"""

from __future__ import annotations

from math import comb, gcd, lcm

from .fields import QQ
from .idealops import Ideal
from .matrix import PolyMatrix
from .poly import Polynomial, Ring

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# materialization ceiling for minor ideals without index hints
MAX_MATERIALIZED_MINORS = 512


class CertificateReport:
    """Outcome of one certified claim, with a replayable witness.

    `millis` is the claim's wall time: 0 when the report is built, and set
    afterwards by the runner that timed it.
    """

    def __init__(self, claim: str, status: str, witness: dict | None = None,
                 anchor: str = ""):
        self.claim = claim
        self.status = status
        self.witness = {} if witness is None else witness
        self.anchor = anchor
        self.millis = 0

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "witness": self.witness,
            "anchor": self.anchor,
            "millis": self.millis,
        }


class ComplexData:
    """A chain of differentials in application order, first map first.

    matrices[0] presents the quotient (its columns are the generators);
    consecutive products matrices[k] * matrices[k+1] must vanish. ranks are
    the expected Buchsbaum-Eisenbud ranks r_1 ... r_n.
    """

    def __init__(self, matrices, ranks):
        self.matrices = tuple(matrices)
        self.ranks = tuple(ranks)
        if len(self.matrices) != len(self.ranks):
            raise ValueError("one expected rank per differential")
        if not self.matrices:
            raise ValueError("empty complex")


class MinorWitness:
    """Row/column selection locating a named minor, with its sign: the
    minor is the named polynomial when sign is 1 and its negative when -1.
    Any other sign, a bool or a float among them, raises ValueError, so a
    witness always records the int."""

    def __init__(self, rows: tuple, cols: tuple, sign: int = 1):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"minor sign must be 1 or -1, not {sign!r}")
        self.rows = rows
        self.cols = cols
        self.sign = sign

    def signed_minor(self, matrix: PolyMatrix) -> Polynomial:
        """The located minor of `matrix` times the sign, the polynomial the
        witness names. Every check that a hint names a given polynomial
        compares this value."""
        minor = matrix.minor(self.rows, self.cols)
        return minor if self.sign == 1 else -minor


class MinorIdeal:
    """The ideal of all size x size minors of a matrix, kept symbolic."""

    def __init__(self, matrix: PolyMatrix, size: int):
        self.matrix = matrix
        self.size = size

    @property
    def count(self) -> int:
        return comb(self.matrix.nrows, self.size) * comb(self.matrix.ncols, self.size)

    def materialize(self) -> Ideal:
        return Ideal(self.matrix.ring,
                     list(self.matrix.minors(self.size).values()))


class GradeCertificate:
    """Witness data for a grade lower bound on a (minor) ideal.

    witnesses is a regular sequence inside the target; minor_hints locates
    each witness as a signed minor when the target is a minor ideal; aux and
    expected record a simplification check ideal(witnesses + aux) == expected.
    """

    def __init__(self, bound: int, witnesses: tuple,
                 minor_hints: tuple | None = None,
                 aux: Polynomial | None = None, expected: Ideal | None = None):
        self.bound = bound
        self.witnesses = witnesses
        self.minor_hints = minor_hints
        self.aux = aux
        self.expected = expected


def _combine(statuses):
    if REFUTED in statuses:
        return REFUTED
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return VERIFIED


def is_regular_sequence(seq, claim="regular_sequence", anchor="") -> CertificateReport:
    """Certify a regular sequence in the localization at the origin.

    Each step demands the global colon equality ((s_1..s_i) : s_{i+1}) =
    (s_1..s_i), which localizes. A colon element that is a unit at the
    origin refutes the step; a strict global inclusion inside the maximal
    ideal leaves the local statement undecided.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    ring = seq[0].ring
    steps = []
    for i, s in enumerate(seq):
        if s.is_zero():
            return CertificateReport(
                claim, REFUTED,
                {"reason": "zero element", "index": i, "steps": steps}, anchor)
        if s.constant_term() != ring.field.zero:
            return CertificateReport(
                claim, REFUTED,
                {"reason": "unit at the origin", "index": i,
                 "element": str(s), "steps": steps}, anchor)
        prefix = Ideal(ring, seq[:i])
        col = prefix.colon(s)
        if col.equals(prefix):
            steps.append({"index": i, "colon_equals_prefix": True})
            continue
        unit = col.unit_at_origin()
        if unit is not None:
            return CertificateReport(
                claim, REFUTED,
                {"reason": "colon contains a unit at the origin",
                 "index": i, "element": str(unit), "steps": steps}, anchor)
        return CertificateReport(
            claim, INCONCLUSIVE,
            {"reason": "global colon grows but stays inside the maximal ideal",
             "index": i, "steps": steps}, anchor)
    return CertificateReport(
        claim, VERIFIED, {"length": len(seq), "steps": steps}, anchor)


def _witness_membership(target, w, hint):
    """Check one grade witness lies in the target; returns (status, info)."""
    if hint is not None:
        if not isinstance(target, MinorIdeal):
            return INCONCLUSIVE, {"reason": "minor hint without a minor ideal"}
        if hint.signed_minor(target.matrix) == w:
            return VERIFIED, {
                "minor_rows": list(hint.rows),
                "minor_cols": list(hint.cols),
                "sign": hint.sign,
            }
        return REFUTED, {
            "reason": "minor does not match witness",
            "minor_rows": list(hint.rows),
            "minor_cols": list(hint.cols),
        }
    if isinstance(target, MinorIdeal):
        if target.count > MAX_MATERIALIZED_MINORS:
            return INCONCLUSIVE, {
                "reason": "minor ideal too large to materialize without a hint",
                "count": target.count,
            }
        target = target.materialize()
    if target.contains(w):
        return VERIFIED, {"membership": "normal form vanishes"}
    return REFUTED, {"reason": "witness not in target ideal"}


def grade_at_least(target, k: int, cert: GradeCertificate,
                   claim="grade_at_least", anchor="") -> CertificateReport:
    """Certify grade(target) >= k through cert's explicit regular sequence."""
    if cert.bound != k:
        raise ValueError("certificate bound does not match the claim")
    witnesses = list(cert.witnesses)
    if len(witnesses) < k:
        return CertificateReport(
            claim, INCONCLUSIVE,
            {"reason": f"need at least {k} witnesses, got {len(witnesses)}"},
            anchor)
    hints = list(cert.minor_hints) if cert.minor_hints is not None else [None] * len(witnesses)
    if len(hints) != len(witnesses):
        # zip would stop at the shorter list and leave a witness unchecked
        return CertificateReport(
            claim, INCONCLUSIVE,
            {"reason": f"{len(hints)} minor hints for "
                       f"{len(witnesses)} witnesses"},
            anchor)
    member_info = []
    for w, hint in zip(witnesses, hints):
        status, info = _witness_membership(target, w, hint)
        member_info.append(info)
        if status != VERIFIED:
            return CertificateReport(
                claim, status, {"membership": member_info}, anchor)
    reg = is_regular_sequence(witnesses)
    witness = {"membership": member_info, "regular_sequence": reg.witness}
    if reg.status != VERIFIED:
        return CertificateReport(claim, reg.status, witness, anchor)
    if cert.expected is not None:
        ring = witnesses[0].ring
        gens = witnesses + ([cert.aux] if cert.aux is not None else [])
        simplified = Ideal(ring, gens)
        if not simplified.equals(cert.expected):
            return CertificateReport(
                claim, REFUTED,
                {**witness, "simplification": "ideal mismatch"}, anchor)
        witness["simplification"] = {
            "ideal": [str(g) for g in simplified.groebner()],
        }
    return CertificateReport(claim, VERIFIED, witness, anchor)


def verify_complex(cd: ComplexData, claim="complex", anchor="") -> CertificateReport:
    """Check that consecutive differentials compose to zero."""
    mats = cd.matrices
    products = []
    for k in range(len(mats) - 1):
        a, b = mats[k], mats[k + 1]
        if a.ncols != b.nrows:
            return CertificateReport(
                claim, INCONCLUSIVE,
                {"reason": "dimension mismatch",
                 "position": k + 1,
                 "shapes": [list(a.shape), list(b.shape)]}, anchor)
        if not a.mul(b).is_zero():
            return CertificateReport(
                claim, REFUTED,
                {"reason": "nonzero composite", "position": k + 1}, anchor)
        products.append(f"M{k+1}*M{k+2} = 0")
    return CertificateReport(
        claim, VERIFIED, {"products": products}, anchor)


def _pivot_minor(matrix: PolyMatrix, profile, size: int):
    """Index sets of the minor on the first `size` pivots of a rank profile.

    The minor is re-evaluated, so a witness never rests on the elimination
    alone. The empty minor (size 0) is 1.
    """
    if size == 0:
        return (), ()
    _, rows, cols = profile
    key = tuple(sorted(rows[:size])), tuple(sorted(cols[:size]))
    if matrix.minor(*key).is_zero():
        raise ArithmeticError("pivot minor of the elimination vanishes")
    return key


def _hinted_minor(matrix: PolyMatrix, size: int, hints):
    """The first hinted size x size minor that is nonzero, or None."""
    for hint in hints or []:
        if len(hint.rows) == size and len(hint.cols) == size:
            if not matrix.minor(hint.rows, hint.cols).is_zero():
                return hint.rows, hint.cols
    return None


def buchsbaum_eisenbud(cd: ComplexData, certs,
                       claim="buchsbaum_eisenbud", anchor="") -> CertificateReport:
    """Acyclicity certificate: rank sums, exact ranks, and grade bounds.

    certs maps the 1-based differential index k to a GradeCertificate for
    grade(I_{r_k}(M_k)) >= k, or to None, which leaves that grade clause
    inconclusive. The rank-sum arithmetic is checked before any minor is
    evaluated.
    """
    mats = cd.matrices
    ranks = cd.ranks
    n = len(mats)
    detail: dict = {}
    for k in range(n):
        expect = ranks[k] + (ranks[k + 1] if k + 1 < n else 0)
        if mats[k].ncols != expect:
            return CertificateReport(
                claim, REFUTED,
                {"clause": "rank_sum", "position": k + 1,
                 "cols": mats[k].ncols, "expected": expect}, anchor)
    detail["rank_sums"] = [
        f"cols(M{k+1}) = {ranks[k]} + {ranks[k+1] if k+1 < n else 0}"
        for k in range(n)
    ]
    statuses = []
    per_k = []
    for k in range(n):
        m, r = mats[k], ranks[k]
        cert = certs.get(k + 1)
        entry: dict = {"position": k + 1, "rank": r}
        hints = cert.minor_hints if cert is not None else None
        found = _hinted_minor(m, r, hints)
        profile = None
        # A nonzero hinted r-minor settles the rank when no (r+1)-minor
        # exists; otherwise one elimination decides it.
        if found is None or r < min(m.shape):
            profile = m.rank_profile()
            if profile[0] < r:
                return CertificateReport(
                    claim, REFUTED,
                    {**detail, "clause": "nonzero_minor", "position": k + 1,
                     "detail": per_k}, anchor)
            if found is None:
                found = _pivot_minor(m, profile, r)
        entry["nonzero_minor"] = {"rows": list(found[0]), "cols": list(found[1])}
        if profile is not None and profile[0] > r:
            offender = _pivot_minor(m, profile, r + 1)
            return CertificateReport(
                claim, REFUTED,
                {**detail, "clause": "vanishing_minors", "position": k + 1,
                 "offender": [list(offender[0]), list(offender[1])],
                 "detail": per_k}, anchor)
        entry["vanishing_minors"] = (
            "vacuous" if r + 1 > min(m.shape)
            else f"all {comb(m.nrows, r+1) * comb(m.ncols, r+1)} of size {r+1} vanish"
        )
        if cert is None:
            entry["grade"] = "no certificate provided"
            statuses.append(INCONCLUSIVE)
        else:
            g = grade_at_least(MinorIdeal(m, r), k + 1, cert)
            entry["grade"] = {"status": g.status, "witness": g.witness}
            statuses.append(g.status)
        per_k.append(entry)
    detail["detail"] = per_k
    return CertificateReport(claim, _combine(statuses), detail, anchor)


def resolution_minimal(cd: ComplexData, claim="resolution_minimal",
                       anchor="") -> CertificateReport:
    """Minimality: every differential entry vanishes at the origin.

    When verified, the minimal generator count of the presented quotient's
    first syzygy module input, mu, equals the column count of the first
    differential.
    """
    for k, m in enumerate(cd.matrices):
        field_zero = m.ring.field.zero
        for i in range(m.nrows):
            for j in range(m.ncols):
                if m[i, j].constant_term() != field_zero:
                    return CertificateReport(
                        claim, REFUTED,
                        {"matrix": k + 1, "row": i, "col": j,
                         "entry": str(m[i, j])}, anchor)
    return CertificateReport(
        claim, VERIFIED, {"mu": cd.matrices[0].ncols}, anchor)


def linear_type_obstruction(mu: int, ambient_dim: int,
                            claim="linear_type", anchor="") -> CertificateReport:
    """Refute linear type when mu exceeds the ambient dimension."""
    witness = {"mu": mu, "ambient_dim": ambient_dim}
    if mu > ambient_dim:
        witness["obstruction"] = f"{mu} generators > dimension {ambient_dim}"
        return CertificateReport(claim, REFUTED, witness, anchor)
    witness["obstruction"] = "none"
    return CertificateReport(claim, INCONCLUSIVE, witness, anchor)


def _lift_multiplies_out(lift, H: Ideal, I: Ideal, target: Polynomial) -> bool:
    """Whether target == sum(c * H.gens[i] * I.gens[j]) over the lift's terms."""
    rest = target
    for c, i, j in lift:
        if not (0 <= i < len(H.gens) and 0 <= j < len(I.gens)):
            raise ValueError(f"lift term ({i}, {j}) names no generator pair")
        rest = rest - target.ring.convert(c) * H.gens[i] * I.gens[j]
    return rest.is_zero()


def syzygetic_obstruction(H: Ideal, f: Polynomial, I: Ideal,
                          claim="syzygetic", anchor="",
                          lift=None) -> CertificateReport:
    """Refute syzygetic-ness of I = H + (f) by a colon jump at the origin.

    Fast path: f^2 in H*I while (H : f) stays inside the maximal ideal;
    then H:f is strictly smaller than HI:f^2 locally. An optional lift,
    terms (c, i, j) naming the products H.gens[i] * I.gens[j] (indices
    count nonzero generators, the only ones an `Ideal` keeps), proves
    f^2 in H*I when it multiplies out exactly to f^2, before any basis of
    H*I is built; otherwise membership is decided by the reduced basis of
    H*I. General path: scan the reduced basis of (H*I : f^2) for an
    element outside (H : f) at the origin.
    """
    ring = I.ring
    f = I._element(f)
    if f.is_zero():
        raise ValueError("obstruction element must be nonzero")
    presented = Ideal(ring, list(H.gens) + [f])
    if not presented.equals(I):
        return CertificateReport(
            claim, INCONCLUSIVE,
            {"reason": "H + (f) differs from I"}, anchor)
    hf = H.colon(f)
    colon_basis = hf.groebner()
    inside_maximal = hf.unit_at_origin() is None
    f2 = f * f
    lifted = (inside_maximal and lift is not None
              and _lift_multiplies_out(lift, H, I, f2))
    hi = None if lifted else H * I
    if lifted or (inside_maximal and hi.contains(f2)):
        witness = {
            "path": "fast",
            "f_squared_in_HI": True,
            "colon_H_f_constant_terms_zero": inside_maximal,
            "colon_H_f_basis": [str(g) for g in colon_basis],
        }
        return CertificateReport(claim, REFUTED, witness, anchor)
    scanned = []
    for g in (hi.colon(f2)).groebner():
        scanned.append(str(g))
        if hf.locally_contains_at_origin(g) is None:
            if not hi.contains(g * f2):
                return CertificateReport(
                    claim, INCONCLUSIVE,
                    {"reason": "internal witness replay failed",
                     "element": str(g)},
                    anchor)
            witness = {
                "path": "colon-scan",
                "element": str(g),
                "element_times_f2_in_HI": True,
            }
            return CertificateReport(claim, REFUTED, witness, anchor)
    return CertificateReport(
        claim, INCONCLUSIVE,
        {"reason": "no obstruction found", "scanned": scanned}, anchor)


def smallest_valuation_vector(relations, nsyms: int):
    """Componentwise-smallest strictly positive integer solution.

    relations are integer coefficient vectors a with a . v = 0. The solution
    cone must be one-dimensional; the result is primitive (gcd 1). The rank
    and a set of independent rows come from `PolyMatrix.rank_profile`.
    """
    relations = [list(r) for r in relations]
    if any(len(r) != nsyms for r in relations):
        raise ValueError("relation arity mismatch")
    rank, rows = 0, ()
    if relations and nsyms:
        m = PolyMatrix(Ring(QQ, ()), relations)
        rank, rows, _ = m.rank_profile()
    if nsyms - rank != 1:
        raise ValueError(
            f"solution space has dimension {nsyms - rank}, expected 1"
        )
    # Cramer's rule: the signed maximal minors of the pivot rows span the
    # null space; with no relation of positive rank it is the empty minor, 1
    sol = [1]
    if rank:
        sol = [(-1) ** j * m.minor(rows, [c for c in range(nsyms) if c != j])
               .constant_term() for j in range(nsyms)]
    den = lcm(*(v.denominator for v in sol))
    ints = [int(v * den) for v in sol]
    if all(v < 0 for v in ints):
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise ValueError("no strictly positive solution")
    g = gcd(*ints)
    return tuple(v // g for v in ints)
