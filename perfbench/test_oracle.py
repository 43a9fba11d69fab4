"""Cross-check the benchmark's Groebner-basis references against sympy.

    python3 -m pytest perfbench/test_oracle.py

sympy is an independent oracle used only here; the timed benchmark process
never imports it (run.py fails a run that does). The checks cover:

- the seeded gb pipeline (generator text, scaling, `run gb I`)
  on cyclic-5 and katsura in 6 variables, over Q and GF(p), against
  sympy's reduced basis;
- the stored cyclic-6 and katsura-7 references: every seeded generator
  reduces to zero modulo them, and they are reduced and monic;
- the `gb I` output of the seeded sessions, over Q and GF(p);
- the bases `minigb`, the engine that checks session outputs, computes for
  the seeded sessions' I and A, over Q and GF(p).
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import pytest

sympy = pytest.importorskip("sympy")

import minigb  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def cli():
    return run.import_idealkit()


def _idealkit_basis(cli, path, prime=None):
    argv = ["run", str(path), "gb", "I"]
    if prime is not None:
        argv += ["--field", f"fp:{prime}"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().splitlines()


def _session_parts(text):
    """(variable names, generator texts of I) from a generated session."""
    lines = text.splitlines()
    names = lines[0][lines[0].index("[") + 1:lines[0].index("]")].split(", ")
    ideal = next(line for line in lines if line.startswith("ideal I = "))
    return names, _split_top_level(ideal[len("ideal I = "):-1])


def _split_top_level(text):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _polys(texts, names, prime):
    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    opts = {"modulus": prime} if prime else {"domain": "QQ"}
    return [sympy.Poly(sympy.sympify(t.replace("^", "**"), locals=local), *syms, **opts)
            for t in texts], syms


def _same_basis(lines, gen_texts, names, prime):
    """Whether `lines` is sympy's reduced grevlex basis of the generators.

    Both sides are scaled by `Poly.monic` (lex leading coefficient), which
    puts any two scalings of one polynomial in the same form.
    """
    gens, syms = _polys(gen_texts, names, prime)
    opts = {"modulus": prime} if prime else {"domain": sympy.QQ}
    oracle = sympy.groebner([g.as_expr() for g in gens], *syms, order="grevlex", **opts)
    theirs, _ = _polys([str(g) for g in oracle.exprs], names, prime)
    ours, _ = _polys(lines, names, prime)
    return {p.monic() for p in ours} == {p.monic() for p in theirs}


@pytest.mark.parametrize("system", ["cyclic5", "katsura6"])
@pytest.mark.parametrize("over", ["q", "fp"])
def test_small_systems_match_sympy(cli, tmp_path, system, over):
    rng = random.Random(f"oracle:{system}:{SEED}")
    prime = workloads.seeded_prime(rng) if over == "fp" else None
    text = workloads.scaled_system(system, rng)
    path = tmp_path / f"{system}.ikt"
    path.write_text(text)
    names, gens = _session_parts(text)
    assert _same_basis(_idealkit_basis(cli, path, prime), gens, names, prime)


@pytest.mark.parametrize("system", workloads.GB_SYSTEMS)
def test_stored_reference_is_a_reduced_basis_of_the_system(system):
    text = workloads.scaled_system(system, random.Random(f"oracle:{system}:{SEED}"))
    names, gens = _session_parts(text)
    ref = workloads.reference_text(f"gb_{system}.txt").splitlines()
    basis, syms = _polys(ref, names, None)
    order = "grevlex"
    for b in basis:
        assert b.LC(order=order) == 1
    leads = [b.LM(order=order) for b in basis]
    for i, b in enumerate(basis):
        for j, lm in enumerate(leads):
            if i != j:
                assert not any(all(e >= l for e, l in zip(m, lm.exponents))
                               for m in b.monoms()), "basis is not reduced"
    for g in _polys(gens, names, None)[0]:
        _, rem = sympy.reduced(g.as_expr(), [b.as_expr() for b in basis], *syms,
                               order=order, domain=sympy.QQ)
        assert rem == 0


@pytest.mark.parametrize("over", ["q", "fp"])
def test_session_gb_matches_sympy(cli, tmp_path, over):
    plan = workloads.build("session", SEED, str(tmp_path))
    prime = plan.prime if over == "fp" else None
    sessions = sorted(p for p in plan.files if os.path.basename(p).startswith("session"))
    assert sessions
    for path in sessions:
        names, gens = _session_parts(plan.files[path])
        lines = _idealkit_basis(cli, path, prime)
        assert _same_basis(lines, gens, names, prime), path


def _text(poly, names):
    """A minigb polynomial as sympy-readable text."""
    terms = []
    for exps, c in poly.items():
        mono = "*".join(f"{n}**{e}" for n, e in zip(names, exps) if e)
        terms.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(terms) or "0"


@pytest.mark.parametrize("over", ["q", "fp"])
def test_minigb_session_bases_match_sympy(tmp_path, over):
    """The engine that checks session outputs agrees with sympy on the
    reduced bases of every session's I and A."""
    plan = workloads.build("session", SEED, str(tmp_path))
    prime = plan.prime if over == "fp" else None
    F = minigb.Field(prime)
    names = workloads.SESSION_VARS
    key = minigb.degrevlex(len(names))
    sessions = {id(t.info["objects"]): t.info["objects"]
                for t in plan.tasks if "objects" in t.info}
    assert len(sessions) == workloads.SESSIONS
    for obj in sessions.values():
        for name in ("I", "A"):
            gens = [minigb.parse(t, names, F) for t in obj[name]]
            lines = [_text(g, names) for g in minigb.groebner(gens, key, F)]
            assert _same_basis(lines, obj[name], names, prime), (name, obj[name])
