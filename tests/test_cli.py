"""Command-line interface: verify and run subcommands, formats, exit codes."""

import fcntl
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from idealkit.cli import RUN_COMMANDS, main
from idealkit.parse import parse_poly, parse_session
from idealkit.poly import Ring

DEMO = """\
ring Q[x, y];
poly f = x^2 + y;
ideal I = x^2 - y^2, x*y;
ideal J = x^2, y^2;
ideal M2 = x^2, x*y, y^2;
ideal K = x, y;
"""

CUSP = """\
ring Q[t];
poly a = t^2;
poly b = t^3;
"""

SLICE = """\
ring Q[x, y, z, t];
ideal L = y*z, z^3, z^2*t, z*t^2, t^3, y^4, y^3*t, y^2*t^2, x;
"""


@pytest.fixture
def demo(tmp_path):
    p = tmp_path / "demo.ikt"
    p.write_text(DEMO)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_lemma2_json(capsys):
    code, data = run_json(capsys, ["verify", "--lemma", "2", "--format", "json"])
    assert code == 0
    assert data["schema"] == 1
    assert data["lemma"] == "lemma2"
    claims = data["claims"]
    assert [c["claim"] for c in claims] == [
        "element_outside_subideal", "square_in_product",
        "colon_strictness", "not_syzygetic"]
    assert all(c["status"] == "verified" for c in claims)
    for c in claims:
        assert set(c) == {"claim", "status", "witness", "anchor", "millis"}


def test_verify_json_deterministic(capsys):
    def snap():
        code, data = run_json(
            capsys, ["verify", "--lemma", "lemma2", "--format", "json"])
        assert code == 0
        for c in data["claims"]:
            c.pop("millis")
        return data

    assert snap() == snap()


# `verify --lemma <id> --format json --field <f>` with the millis lines
# removed. Regenerate a file only together with a CHANGES.md entry that
# says which verdict or witness changed and why.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("field", ["q", "fp:2", "fp:3", "fp:7"])
@pytest.mark.parametrize("lemma", ["lemma2", "lemma3", "lemma4", "huneke"])
def test_verify_json_matches_golden(capsys, lemma, field):
    main(["verify", "--lemma", lemma, "--format", "json", "--field", field])
    out = re.sub(r',\n *"millis": \d+', "", capsys.readouterr().out)
    golden = GOLDEN / f"{lemma}_{field.replace(':', '')}.json"
    assert out == golden.read_text()


# Reduced Groebner bases are unique, so `run <file> gb I` must print these
# bytes after any change to the engine. Regenerate them only together with
# a CHANGES.md entry that says why the basis changed. The `found_lex` files
# were written from sympy's reduced lex basis, not from idealkit.
GB_OPTIONS = {"found_lex": ["--order", "lex"]}


@pytest.mark.parametrize("field", ["q", "fp:32003"])
@pytest.mark.parametrize("system", ["cyclic6", "katsura7", "found_lex"])
def test_run_gb_matches_golden(capsys, system, field):
    ikt = GOLDEN / f"{system}.ikt"
    args = ["run", str(ikt), *GB_OPTIONS.get(system, ()), "gb", "I"]
    assert main([*args, "--field", field]) == 0
    golden = GOLDEN / f"{system}_gb_{field.replace(':', '')}.txt"
    assert capsys.readouterr().out == golden.read_text()


# Every report-returning `run` command, and `minors`, on one session file:
# the files pin the report serializer and the dedup of minors up to sign.
# Each command's output follows a `$ <command>  (exit <code>)` line, with
# the times masked. Regenerate only as the golden files above.
RUN_GOLDEN = [
    "regseq x y z", "regseq x*y x*z", "complex phi1 phi2", "be phi1 phi2",
    "be A B", "syzygetic J x*y I", "lineartype I", "minors phi2 2",
    "minors phi2 3",
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("field", ["q", "fp:7"])
def test_run_reports_match_golden(capsys, field, fmt):
    ikt = str(GOLDEN / "run_matrices.ikt")
    out = []
    for command in RUN_GOLDEN:
        code = main(["run", ikt, *command.split(), "--field", field,
                     "--format", fmt])
        text = re.sub(r',\n *"millis": \d+', "", capsys.readouterr().out)
        text = re.sub(r"\[\d+ ms\]", "[N ms]", text)
        out.append(f"$ {command}  (exit {code})\n{text}")
    golden = GOLDEN / f"run_matrices_{field.replace(':', '')}_{fmt}.txt"
    assert "".join(out) == golden.read_text()


def test_verify_text_format(capsys):
    code = main(["verify", "--lemma", "huneke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel_sound" in out
    assert "verified" in out
    assert out.strip().splitlines()[-1].startswith("all claims verified")


def test_verify_lemma_aliases(capsys):
    for alias in ("3", "lemma3"):
        code, data = run_json(
            capsys, ["verify", "--lemma", alias, "--format", "json"])
        assert code == 0
        assert data["lemma"] == "lemma3"


def test_verify_prime_field(capsys):
    code, data = run_json(
        capsys,
        ["verify", "--lemma", "2", "--format", "json", "--field", "fp:7"])
    assert code == 0
    assert all(c["status"] == "verified" for c in data["claims"])


def test_run_gb(capsys, demo):
    code, data = run_json(capsys, ["run", demo, "gb", "I", "--format", "json"])
    assert code == 0
    assert data["schema"] == 1
    assert data["result"] == ["x*y", "x^2 - y^2", "y^3"]


def test_run_nf(capsys, demo):
    code = main(["run", demo, "nf", "I", "x^2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "y^2"


def test_run_nf_member(capsys, demo):
    # x^3 = x*(x^2 - y^2) + y*(x*y)
    code = main(["run", demo, "nf", "I", "x^3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_run_nf_expression_uses_declared_poly(capsys, demo):
    # f = x^2 + y, so f*x = x^3 + x*y, and x^3 lies in I.
    assert main(["run", demo, "nf", "I", "f*x"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["run", demo, "nf", "I", "f - y"]) == 0
    assert capsys.readouterr().out.strip() == "y^2"


def test_exit_2_on_ideal_in_expression(capsys, demo):
    assert main(["run", demo, "nf", "I", "I*x"]) == 2
    assert ("'I' names an ideal or matrix, not a polynomial"
            in capsys.readouterr().err)


def test_run_colon(capsys, demo):
    code, data = run_json(
        capsys, ["run", demo, "colon", "J", "x*y", "--format", "json"])
    assert code == 0
    assert data["result"] == ["y", "x"]
    # xy lies in M2, so that colon is the unit ideal
    code, data = run_json(
        capsys, ["run", demo, "colon", "M2", "x*y", "--format", "json"])
    assert code == 0
    assert data["result"] == ["1"]


def test_run_intersect(capsys, tmp_path):
    p = tmp_path / "s.ikt"
    p.write_text("ring Q[x, y];\nideal A = x;\nideal B = y;\n")
    code, data = run_json(
        capsys, ["run", str(p), "intersect", "A", "B", "--format", "json"])
    assert code == 0
    assert data["result"] == ["x*y"]


def test_run_kernel(capsys, tmp_path):
    p = tmp_path / "cusp.ikt"
    p.write_text(CUSP)
    code = main(["run", str(p), "kernel", "a", "b"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "x^3 - y^2"


def test_run_kernel_expressions(capsys, tmp_path):
    p = tmp_path / "cusp.ikt"
    p.write_text(CUSP)
    code = main(["run", str(p), "kernel", "t^2", "t^3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "x^3 - y^2"


def test_run_kernel_in_a_ring_with_default_target_names(capsys, tmp_path):
    # x and y are the ring's own names, so the targets are X1, X2, X3.
    p = tmp_path / "s.ikt"
    p.write_text("ring Q[x, y];\n")
    images = ["x^2", "x*y", "y^2 - x"]
    code = main(["run", str(p), "kernel", *images])
    lines = capsys.readouterr().out.split("\n")[:-1]
    assert code == 0 and lines
    session = parse_session(p.read_text())
    target = Ring(session.ring.field, ("X1", "X2", "X3"))
    subs = [parse_poly(session.ring, text) for text in images]
    for line in lines:
        g = parse_poly(target, line)
        assert not g.is_zero()
        assert g.substitute(subs, session.ring).is_zero()


def test_run_dim_and_colength(capsys, demo):
    code = main(["run", demo, "dim", "I"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    code = main(["run", demo, "colength", "M2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_run_colength_slice(capsys, tmp_path):
    p = tmp_path / "slice.ikt"
    p.write_text(SLICE)
    code = main(["run", str(p), "colength", "L"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "12"


def test_run_colength_infinite(capsys, tmp_path):
    p = tmp_path / "s.ikt"
    p.write_text("ring Q[x, y];\nideal A = x;\n")
    code = main(["run", str(p), "colength", "A"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "infinite"


def test_run_minors(capsys, tmp_path):
    p = tmp_path / "m.ikt"
    p.write_text(
        "ring Q[x, y, z];\n"
        "matrix phi2 4x3 = [ x, x*y, z ; x, y, 0 ; -z, -x^2, -y ; -y, -z, x ];\n")
    code, data = run_json(
        capsys, ["run", str(p), "minors", "phi2", "3", "--format", "json"])
    assert code == 0
    assert len(data["result"]) == 4
    assert any("y^3" in g for g in data["result"])


def test_run_regseq(capsys, demo):
    code, data = run_json(
        capsys, ["run", demo, "regseq", "x", "y", "--format", "json"])
    assert code == 0
    assert data["claims"][0]["status"] == "verified"


def test_run_lineartype(capsys, demo):
    assert main(["run", demo, "lineartype", "M2"]) == 1
    capsys.readouterr()
    assert main(["run", demo, "lineartype", "K"]) == 0


def test_run_lineartype_reports_its_time(capsys, demo, monkeypatch):
    clock = itertools.count(0.0, 0.25)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    code, data = run_json(
        capsys, ["run", demo, "lineartype", "K", "--format", "json"])
    assert code == 0
    assert data["claims"][0]["millis"] == 250


def test_run_syzygetic(capsys, tmp_path):
    p = tmp_path / "s.ikt"
    p.write_text(
        "ring Q[x, y];\nideal J = x^2, y^2;\nideal I = x^2, x*y, y^2;\n")
    code = main(["run", str(p), "syzygetic", "J", "x*y", "I"])
    out = capsys.readouterr().out
    assert code == 1
    assert "refuted" in out


def test_run_be_without_certs_is_inconclusive(capsys, tmp_path):
    p = tmp_path / "c.ikt"
    p.write_text(
        "ring Q[x, y, z];\n"
        "poly f1 = y^3 - x^4;\n"
        "poly f2 = x*y*z - z^3 + x^4 - x*y^3;\n"
        "poly f3 = x^2*y + y^2*z - x*z^2 - x^3*y;\n"
        "poly f4 = x*y^2 - y*z^2 - x^2*y^2 + x^3*z;\n"
        "matrix phi1 1x4 = [ f1, f2, f3, f4 ];\n"
        "matrix phi2 4x3 = [ x, x*y, z ; x, y, 0 ; -z, -x^2, -y ; -y, -z, x ];\n")
    assert main(["run", str(p), "complex", "phi1", "phi2"]) == 0
    capsys.readouterr()
    code = main(["run", str(p), "be", "phi1", "phi2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "inconclusive" in out


def test_run_be_expected_rank_zero(capsys, tmp_path):
    # cols(A) = 2 = rank(B), so r1 = 0 and every 1x1 minor of A must vanish
    p = tmp_path / "z.ikt"
    p.write_text("ring Q[x, y];\nmatrix A 1x2 = [x, y];\n"
                 "matrix B 2x2 = [y, 0; -x, 0];\n")
    code, data = run_json(
        capsys, ["run", str(p), "be", "A", "B", "--format", "json"])
    assert code == 1
    (claim,) = data["claims"]
    assert claim["status"] == "refuted"
    witness = claim["witness"]
    assert (witness["clause"], witness["position"]) == ("vanishing_minors", 1)
    rows, cols = witness["offender"]
    # both entries x, y of A are nonzero
    assert rows == [0] and cols in ([0], [1])


def test_run_eliminate(capsys, tmp_path):
    p = tmp_path / "e.ikt"
    p.write_text("ring Q[u, x, y];\nideal A = x - u^2, y - u^3;\n")
    code, data = run_json(
        capsys, ["run", str(p), "eliminate", "A", "u", "--format", "json"])
    assert code == 0
    assert data["result"] == ["x^3 - y^2"]


@pytest.mark.parametrize("field", ["q", "fp:32003"])
def test_eliminate_keeps_the_lex_order(capsys, tmp_path, field):
    # Lex is an elimination order: the x-free part of I's lex basis is the
    # reduced lex basis of I cap k[y, z]. Under degrevlex the smaller ring
    # gives y^2*z - y, y^3 - z^3, z^4 - y^2.
    p = tmp_path / "lex.ikt"
    p.write_text("ring Q[x, y, z];\nideal I = x - y^2, x*z - y, z^3 - x*y;\n")
    flags = ["--order", "lex", "--field", field, "--format", "json"]
    code, gb = run_json(capsys, ["run", str(p), "gb", "I", *flags])
    assert code == 0
    code, data = run_json(capsys, ["run", str(p), "eliminate", "I", "x", *flags])
    assert code == 0
    assert data["result"] == [g for g in gb["result"] if "x" not in g]
    if field == "q":
        assert data["result"] == ["z^9 - z^3", "y - z^5"]


def test_run_rees(capsys, tmp_path):
    p = tmp_path / "r.ikt"
    p.write_text("ring Q[x, y];\nideal K = x, y;\n")
    code, data = run_json(
        capsys, ["run", str(p), "rees", "K", "--format", "json"])
    assert code == 0
    assert data["result"] == ["T1*y - T2*x"]


def test_order_flag_changes_basis(capsys, tmp_path):
    p = tmp_path / "o.ikt"
    p.write_text("ring Q[x, y];\nideal A = x - y^2;\n")
    code, data = run_json(
        capsys,
        ["run", str(p), "gb", "A", "--order", "lex", "--format", "json"])
    assert code == 0
    assert data["result"] == ["x - y^2"]
    code, data = run_json(
        capsys,
        ["run", str(p), "gb", "A", "--order", "degrevlex", "--format", "json"])
    assert code == 0
    assert data["result"] == ["y^2 - x"]


def test_field_flag_on_run(capsys, demo):
    code, data = run_json(
        capsys,
        ["run", demo, "gb", "I", "--field", "fp:5", "--format", "json"])
    assert code == 0
    assert data["result"] == ["x*y", "x^2 + 4*y^2", "y^3"]


def test_exit_2_on_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.ikt"
    p.write_text("ring Q[x];\npoly f = x +;\n")
    code = main(["run", str(p), "gb", "f"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "line 2" in err


def test_exit_2_on_oversized_power(capsys, tmp_path):
    p = tmp_path / "big.ikt"
    p.write_text("ring Q[x];\npoly f = 2^200000;\n")
    code = main(["run", str(p), "gb", "f"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2, column 11: coefficient too large" in err


@pytest.mark.parametrize("expr, reason", [
    ("x^99999*(x^2)", "exponent too large"),
    ("(2^4000*x + 1)*(2^200*x + 1)", "coefficient too large"),
], ids=["folded-factor", "multi-term-product"])
def test_exit_2_on_a_product_past_its_bound(capsys, tmp_path, expr, reason):
    p = tmp_path / "big.ikt"
    p.write_text(f"ring Q[x];\npoly f = {expr};\n")
    assert main(["run", str(p), "gb", "f"]) == 2
    assert f"line 2, column 10: {reason}" in capsys.readouterr().err


def test_exit_2_on_unknown_name(capsys, demo):
    code = main(["run", demo, "gb", "missing"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_on_missing_file(capsys):
    code = main(["run", "/nonexistent/path.ikt", "gb", "I"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_on_bad_field(capsys, demo):
    code = main(["run", demo, "gb", "I", "--field", "fp:6"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["fp:\u0667", "fp:1_000_003", "fp: 7"])
def test_exit_2_on_field_not_in_ascii_digits(capsys, demo, field):
    code = main(["run", demo, "gb", "I", "--field", field])
    assert code == 2
    assert f"error: bad --field value {field!r}" in capsys.readouterr().err


def test_exit_2_on_exponent_not_in_ascii_digits(capsys, tmp_path):
    p = tmp_path / "s.ikt"
    p.write_text("ring Q[x];\npoly f = x^\u0663;\n", encoding="utf-8")
    code = main(["run", str(p), "gb", "f"])
    assert code == 2
    assert "line 2, column 12" in capsys.readouterr().err


def test_exit_2_on_minor_size_not_in_ascii_digits(capsys, tmp_path):
    p = tmp_path / "m.ikt"
    p.write_text("ring Q[x];\nmatrix M 1x1 = [ x ];\n")
    code = main(["run", str(p), "minors", "M", "\u0661"])
    assert code == 2
    assert "digits 0-9" in capsys.readouterr().err


@pytest.mark.parametrize("text, command, where", [
    ("ring Fp(7)[x];\nideal I = 1/7*x;\n", ["gb", "I"], "line 2, column 13"),
    ("ring Q[x];\nideal I = 1/7*x;\n", ["gb", "I", "--field", "fp:7"],
     "line 2, column 13"),
    ("ring Fp(7)[x];\nideal I = x;\n", ["nf", "I", "1/7"],
     "'1/7' as a polynomial: line 1, column 3"),
], ids=["file", "field-override", "expression"])
def test_exit_2_on_denominator_vanishing_mod_p(capsys, tmp_path, text,
                                               command, where):
    p = tmp_path / "s.ikt"
    p.write_text(text)
    code = main(["run", str(p), *command])
    assert code == 2
    assert f"{where}: denominator of 1/7 vanishes mod 7" in \
        capsys.readouterr().err


@pytest.mark.parametrize(
    "expr", ["(" * 250 + "x" + ")" * 250, "-" * 500 + "x"],
    ids=["parentheses", "minus-signs"])
def test_exit_2_on_deep_nesting(capsys, tmp_path, expr):
    p = tmp_path / "deep.ikt"
    p.write_text(f"ring Q[x];\nideal I = {expr};\n")
    code = main(["run", str(p), "gb", "I"])
    assert code == 2
    assert "line 2, column 111: expression nested too deeply" in \
        capsys.readouterr().err


def test_exit_2_on_modulus_beyond_proven_primality(capsys):
    code = main(["verify", "--lemma", "lemma2",
                 "--field", "fp:3317044064679887385961981"])
    assert code == 2
    captured = capsys.readouterr()
    assert "cannot prove" in captured.err
    assert "verified" not in captured.out


# Each run command's usage line and its arity: (required, most), with None
# for no limit. A command missing here fails the test below.
USAGE = {
    "gb": ("gb <ideal>", 1, 1),
    "nf": ("nf <ideal> <poly>", 2, 2),
    "colon": ("colon <ideal> <poly-or-ideal>", 2, 2),
    "intersect": ("intersect <ideal> <ideal>", 2, 2),
    "eliminate": ("eliminate <ideal> <var> [<var> ...]", 2, None),
    "kernel": ("kernel <poly> [<poly> ...]", 1, None),
    "rees": ("rees <ideal>", 1, 1),
    "lineartype": ("lineartype <ideal>", 1, 1),
    "dim": ("dim <ideal>", 1, 1),
    "colength": ("colength <ideal>", 1, 1),
    "minors": ("minors <matrix> <size>", 2, 2),
    "regseq": ("regseq <poly> [<poly> ...]", 1, None),
    "complex": ("complex <matrix> <matrix> [...]", 2, None),
    "be": ("be <matrix> [<matrix> ...]", 1, None),
    "syzygetic": ("syzygetic <ideal H> <poly f> <ideal I>", 3, 3),
}


@pytest.mark.parametrize("op", list(RUN_COMMANDS))
def test_exit_2_on_a_wrong_argument_count(capsys, demo, op):
    usage, required, most = USAGE[op]
    counts = [required - 1] + ([] if most is None else [most + 1])
    for count in counts:
        assert main(["run", demo, op, *["I"] * count]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: usage: {usage}\n")


@pytest.mark.parametrize("command", [
    ["nf", "Q", "x+"], ["syzygetic", "Q", "x+", "I"],
], ids=["nf", "syzygetic"])
def test_unknown_ideal_is_reported_before_an_unreadable_poly(capsys, demo,
                                                             command):
    assert main(["run", demo, *command]) == 2
    assert capsys.readouterr().err == "error: 'Q' does not name an ideal\n"


CHAIN = """\
ring Q[x, y];
matrix A 1x2 = [ x, y ];
matrix B 2x3 = [ y, 0, x ; -x, y, 0 ];
"""


@pytest.mark.parametrize("command, reason", [
    (["minors", "Nope", "2"], "'Nope' does not name a matrix"),
    # B has 3 columns, so A's rank would be 2 - 3 = -1
    (["complex", "A", "B"],
     "matrix chain admits no consistent rank expectations"),
], ids=["unknown-matrix", "inconsistent-ranks"])
def test_exit_2_on_a_bad_matrix_argument(capsys, tmp_path, command, reason):
    p = tmp_path / "chain.ikt"
    p.write_text(CHAIN)
    assert main(["run", str(p), *command]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {reason}\n")


def test_exit_2_on_eliminating_an_unknown_variable(capsys, demo):
    assert main(["run", demo, "eliminate", "I", "x", "q"]) == 2
    assert capsys.readouterr().err == "error: 'q' is not a ring variable\n"


def test_run_command_lists_follow_the_table(capsys, demo):
    # RUN_COMMANDS is the one list of run commands: argparse's choices, the
    # help line and README's example block name the same ones in order.
    names = list(RUN_COMMANDS)
    with pytest.raises(SystemExit):
        main(["run", demo, "nosuchcommand"])
    choices = re.search(r"\(choose from (.*)\)", capsys.readouterr().err)
    assert re.findall(r"'(\w+)'", choices.group(1)) == names
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_line = re.search(r"one of: (.*?)\n  args", capsys.readouterr().out,
                          re.S)
    assert help_line.group(1).replace(",", " ").split() == names
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("### Run a command against a session file")[1]
    block = block.split("```sh\n")[1].split("```")[0]
    assert [line.split()[3] for line in block.splitlines()] == names


def test_exit_2_on_unknown_lemma(capsys):
    # argparse rejects the choice itself and exits with status 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "lemma9"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_main_reuses_one_parser_across_calls(capsys, demo):
    # One parser serves every call: options given to one call (--field,
    # --format) must not carry into the next, and an argparse error must
    # leave it usable.
    code, data = run_json(
        capsys, ["run", demo, "gb", "I", "--field", "fp:7",
                 "--format", "json"])
    assert code == 0
    code = main(["verify", "--lemma", "2"])
    assert code == 0
    assert capsys.readouterr().out.endswith("all claims verified\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", demo, "nosuchcommand"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["run", demo, "nf", "I", "x^2"]) == 0
    assert capsys.readouterr().out == "y^2\n"
    code, data = run_json(capsys, ["run", demo, "gb", "I", "--format", "json"])
    assert data["result"] == ["x*y", "x^2 - y^2", "y^3"]


def test_closed_stdout_pipe_exits_without_traceback():
    # `idealkit verify --lemma lemma4 | head -1`: read one line, then close
    # the pipe. The pipe holds one page, less than the 4.7 kB report, and
    # stdout is unbuffered, so the command is still writing when the
    # reader goes away.
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idealkit.cli", "verify", "--lemma", "lemma4"],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        line += os.read(read_end, 1)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert line == b"lemma: lemma4\n"
    assert b"Traceback" not in err
    assert proc.returncode == 1
