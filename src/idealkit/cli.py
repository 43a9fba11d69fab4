"""Command-line interface: lemma verification bundles and session commands.

Exit codes: 0 when every emitted claim is verified (or the command is a
plain computation that succeeded), 1 when some claim is refuted or
inconclusive, 2 on input errors (bad arguments, parse errors, unknown
names).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .certify import (
    CertificateReport,
    ComplexData,
    buchsbaum_eisenbud,
    is_regular_sequence,
    syzygetic_obstruction,
    verify_complex,
)
from .corpus import CORPUS, verify_lemma
from .fields import GF, QQ
from .groebner import normal_form
from .idealops import Ideal, kernel_of_map, linear_type_by_rees, rees_ideal
from .matrix import distinct_up_to_sign
from .orders import DegRevLex, Lex
from .parse import InputError, parse_poly, parse_session

RUN_COMMANDS = (
    "gb", "nf", "colon", "intersect", "eliminate", "kernel", "rees",
    "lineartype", "dim", "colength", "minors", "regseq", "complex",
    "be", "syzygetic",
)


class UsageError(Exception):
    pass


def _parse_field(text):
    if text is None:
        return None
    low = text.lower()
    if low == "q":
        return QQ
    digits = low[3:]
    if low.startswith("fp:") and digits.isascii() and digits.isdecimal():
        try:
            return GF(int(digits))
        except ValueError as exc:
            raise UsageError(f"bad --field value {text!r}: {exc}") from None
    raise UsageError(
        f"bad --field value {text!r} (expected q or fp:<prime>)")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def _emit_reports(reports, fmt, head=None) -> int:
    ok = all(r.status == "verified" for r in reports)
    if fmt == "json":
        payload = {"schema": 1}
        if head:
            payload.update(head)
        payload["claims"] = [_jsonable(r.as_dict()) for r in reports]
        print(json.dumps(payload, indent=2))
    else:
        if head:
            for key, val in head.items():
                print(f"{key}: {val}")
        for r in reports:
            print(f"{r.claim}: {r.status}  [{r.millis} ms]")
            if r.anchor:
                print(f"    {r.anchor}")
            witness = json.dumps(_jsonable(r.witness))
            print(f"    witness: {witness}")
        verdict = "all claims verified" if ok else "NOT all claims verified"
        print(verdict)
    return 0 if ok else 1


def _emit_values(lines, fmt) -> int:
    if fmt == "json":
        print(json.dumps({"schema": 1, "result": lines}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


class _Session:
    """Named-object lookup plus expression parsing for run commands."""

    def __init__(self, session):
        self.session = session
        self.ring = session.ring

    def ideal(self, name: str) -> Ideal:
        gens = self.session.ideals.get(name)
        if gens is None:
            raise UsageError(f"{name!r} does not name an ideal")
        return Ideal(self.ring, gens)

    def matrix(self, name: str):
        m = self.session.matrices.get(name)
        if m is None:
            raise UsageError(f"{name!r} does not name a matrix")
        return m

    def poly(self, text: str):
        try:
            return parse_poly(self.ring, text, self.session)
        except InputError as exc:
            raise UsageError(
                f"cannot read {text!r} as a polynomial: {exc}"
            ) from None


def _need(args, n, usage):
    if len(args) != n:
        raise UsageError(f"usage: {usage}")
    return args


def _basis_lines(ideal: Ideal):
    basis = ideal.groebner()
    return [str(g) for g in basis] if basis else ["0"]


def _derived_ranks(matrices):
    ranks = [0] * len(matrices)
    following = 0
    for k in range(len(matrices) - 1, -1, -1):
        ranks[k] = matrices[k].ncols - following
        following = ranks[k]
        if ranks[k] < 0:
            raise UsageError(
                "matrix chain admits no consistent rank expectations")
    return ranks


def _run_command(sess: _Session, op: str, args):
    """The output lines of a computation, or the report of a claim."""
    if op == "gb":
        (name,) = _need(args, 1, "gb <ideal>")
        return _basis_lines(sess.ideal(name))

    if op == "nf":
        name, expr = _need(args, 2, "nf <ideal> <poly>")
        basis = sess.ideal(name).groebner()
        return [str(normal_form(sess.poly(expr), basis))]

    if op == "colon":
        name, arg = _need(args, 2, "colon <ideal> <poly-or-ideal>")
        I = sess.ideal(name)
        if arg in sess.session.ideals:
            result = I.colon_ideal(sess.ideal(arg))
        else:
            result = I.colon(sess.poly(arg))
        return _basis_lines(result)

    if op == "intersect":
        a, b = _need(args, 2, "intersect <ideal> <ideal>")
        return _basis_lines(sess.ideal(a).intersect(sess.ideal(b)))

    if op == "eliminate":
        if len(args) < 2:
            raise UsageError("usage: eliminate <ideal> <var> [<var> ...]")
        I = sess.ideal(args[0])
        for v in args[1:]:
            if v not in sess.ring._index:
                raise UsageError(f"{v!r} is not a ring variable")
        return _basis_lines(I.eliminate(args[1:]))

    if op == "kernel":
        if not args:
            raise UsageError("usage: kernel <poly> [<poly> ...]")
        images = [sess.poly(a) for a in args]
        kernel = kernel_of_map(images)
        return _basis_lines(kernel)

    if op == "rees":
        (name,) = _need(args, 1, "rees <ideal>")
        return _basis_lines(rees_ideal(sess.ideal(name)))

    if op == "lineartype":
        (name,) = _need(args, 1, "lineartype <ideal>")
        linear = linear_type_by_rees(sess.ideal(name))
        return CertificateReport(
            "linear_type",
            "verified" if linear else "refuted",
            {"rees_ideal_generated_in_degree_one": linear},
            "the defining ideal of the blowup algebra is generated by "
            "its degree-one part exactly for ideals of linear type")

    if op == "dim":
        (name,) = _need(args, 1, "dim <ideal>")
        return [str(sess.ideal(name).krull_dim_quotient())]

    if op == "colength":
        (name,) = _need(args, 1, "colength <ideal>")
        value = sess.ideal(name).colength()
        text = "infinite" if value == float("inf") else str(value)
        return [text]

    if op == "minors":
        name, size_text = _need(args, 2, "minors <matrix> <size>")
        m = sess.matrix(name)
        if not (size_text.isascii() and size_text.isdecimal()):
            raise UsageError("minor size must be written in digits 0-9")
        minors = m.minors(int(size_text))
        return [str(v) for v in distinct_up_to_sign(minors.values())]

    if op == "regseq":
        if not args:
            raise UsageError("usage: regseq <poly> [<poly> ...]")
        seq = [sess.poly(a) for a in args]
        return is_regular_sequence(seq)

    if op == "complex":
        if len(args) < 2:
            raise UsageError("usage: complex <matrix> <matrix> [...]")
        mats = [sess.matrix(a) for a in args]
        cd = ComplexData(mats, _derived_ranks(mats))
        return verify_complex(cd)

    if op == "be":
        if len(args) < 1:
            raise UsageError("usage: be <matrix> [<matrix> ...]")
        mats = [sess.matrix(a) for a in args]
        cd = ComplexData(mats, _derived_ranks(mats))
        certs = {k + 1: None for k in range(len(mats))}
        return buchsbaum_eisenbud(cd, certs)

    if op == "syzygetic":
        h_name, expr, i_name = _need(
            args, 3, "syzygetic <ideal H> <poly f> <ideal I>")
        return syzygetic_obstruction(
            sess.ideal(h_name), sess.poly(expr), sess.ideal(i_name))

    raise UsageError(f"unknown command {op!r}")


# Built on the first call and reused: parse_args leaves the parser as it
# was, and building it costs about half a millisecond.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="idealkit",
        description="Exact ideal arithmetic and certified verification "
                    "of resolution and syzygy claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run an embedded verification bundle")
    verify.add_argument(
        "--lemma", required=True,
        choices=("2", "3", "4", "huneke", "lemma2", "lemma3", "lemma4"),
        help="which bundle to run")
    verify.add_argument("--format", choices=("json", "text"),
                        default="text")
    verify.add_argument(
        "--field", default=None,
        help="override the coefficient field: q or fp:<prime>")

    run = sub.add_parser("run", help="execute a command on a session file")
    run.add_argument("file", help="session file (ring/poly/ideal/matrix)")
    run.add_argument("op", choices=RUN_COMMANDS, metavar="command",
                     help="one of: " + ", ".join(RUN_COMMANDS))
    run.add_argument("args", nargs="*",
                     help="object names or polynomial expressions")
    run.add_argument("--format", choices=("json", "text"), default="text")
    run.add_argument("--field", default=None,
                     help="override the coefficient field: q or fp:<prime>")
    run.add_argument("--order", choices=("degrevlex", "lex"), default=None,
                     help="monomial order for the session ring")
    return parser


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head -1` does. Following the
        # SIGPIPE note of the Python docs, point stdout at devnull so that
        # the flush at exit cannot raise again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(argv) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.command == "verify":
            lemma = ns.lemma if ns.lemma in CORPUS else f"lemma{ns.lemma}"
            reports = verify_lemma(lemma, _parse_field(ns.field))
            return _emit_reports(reports, ns.format, {"lemma": lemma})
        try:
            with open(ns.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {ns.file}: {exc}", file=sys.stderr)
            return 2
        order = {"lex": Lex, "degrevlex": DegRevLex}.get(ns.order)
        session = parse_session(text, _parse_field(ns.field), order)
        start = time.perf_counter()
        result = _run_command(_Session(session), ns.op, ns.args)
        if isinstance(result, CertificateReport):
            result.millis = int((time.perf_counter() - start) * 1000)
            return _emit_reports([result], ns.format)
        return _emit_values(result, ns.format)
    except (InputError, UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
