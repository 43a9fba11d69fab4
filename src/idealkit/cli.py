"""Command-line interface: lemma verification bundles and session commands.

`RUN_COMMANDS` is the one table of `run` commands: it maps each name, in
the order that help lists them, to its usage arguments and to the handler
that returns the output lines or the report of a claim. The argparse
choices and help come from its keys. Arity rule: the required arguments are
the `<...>` of the usage before any `[`, and more may follow only when the
usage has a `[`; any other count exits 2 with `usage: <command> <usage>`.

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
    REFUTED,
    VERIFIED,
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


def _emit_reports(reports, fmt, head=None) -> int:
    ok = all(r.verified for r in reports)
    # Witnesses key by str and hold no float, so default=str, which prints
    # polynomials and fractions, is the only conversion they need.
    if fmt == "json":
        payload = {"schema": 1}
        if head:
            payload.update(head)
        payload["claims"] = [r.as_dict() for r in reports]
        print(json.dumps(payload, indent=2, default=str))
    else:
        if head:
            for key, val in head.items():
                print(f"{key}: {val}")
        for r in reports:
            print(f"{r.claim}: {r.status}  [{r.millis} ms]")
            if r.anchor:
                print(f"    {r.anchor}")
            witness = json.dumps(r.witness, default=str)
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


def _basis_lines(ideal: Ideal):
    basis = ideal.groebner()
    return [str(g) for g in basis] if basis else ["0"]


def _nf(s, name, expr):
    basis = s.ideal(name).groebner()
    return [str(normal_form(s.poly(expr), basis))]


def _colon(s, name, arg):
    I = s.ideal(name)
    if arg in s.session.ideals:
        return _basis_lines(I.colon_ideal(s.ideal(arg)))
    return _basis_lines(I.colon(s.poly(arg)))


def _lineartype(s, name):
    linear = linear_type_by_rees(s.ideal(name))
    return CertificateReport(
        "linear_type",
        VERIFIED if linear else REFUTED,
        {"rees_ideal_generated_in_degree_one": linear},
        "the defining ideal of the blowup algebra is generated by "
        "its degree-one part exactly for ideals of linear type")


def _colength(s, name):
    value = s.ideal(name).colength()
    return ["infinite" if value == float("inf") else str(value)]


def _minors(s, name, size_text):
    m = s.matrix(name)
    if not (size_text.isascii() and size_text.isdecimal()):
        raise UsageError("minor size must be written in digits 0-9")
    minors = m.minors(int(size_text))
    return [str(v) for v in distinct_up_to_sign(minors.values())]


def _chain(s, names):
    """The named matrices as a complex, each rank read off the later maps."""
    mats = [s.matrix(n) for n in names]
    ranks = [0] * len(mats)
    following = 0
    for k in range(len(mats) - 1, -1, -1):
        ranks[k] = mats[k].ncols - following
        following = ranks[k]
        if ranks[k] < 0:
            raise UsageError(
                "matrix chain admits no consistent rank expectations")
    return ComplexData(mats, ranks)


# Handlers name library functions in their bodies, not as table values, so
# each call looks them up in this module and a wrapper installed there by a
# tracer still sees it.
RUN_COMMANDS = {
    "gb": ("<ideal>", lambda s, n: _basis_lines(s.ideal(n))),
    "nf": ("<ideal> <poly>", _nf),
    "colon": ("<ideal> <poly-or-ideal>", _colon),
    "intersect": ("<ideal> <ideal>",
                  lambda s, a, b: _basis_lines(
                      s.ideal(a).intersect(s.ideal(b)))),
    "eliminate": ("<ideal> <var> [<var> ...]",
                  lambda s, n, *vs: _basis_lines(s.ideal(n).eliminate(vs))),
    "kernel": ("<poly> [<poly> ...]",
               lambda s, *fs: _basis_lines(
                   kernel_of_map([s.poly(f) for f in fs]))),
    "rees": ("<ideal>", lambda s, n: _basis_lines(rees_ideal(s.ideal(n)))),
    "lineartype": ("<ideal>", _lineartype),
    "dim": ("<ideal>", lambda s, n: [str(s.ideal(n).krull_dim_quotient())]),
    "colength": ("<ideal>", _colength),
    "minors": ("<matrix> <size>", _minors),
    "regseq": ("<poly> [<poly> ...]",
               lambda s, *fs: is_regular_sequence([s.poly(f) for f in fs])),
    "complex": ("<matrix> <matrix> [...]",
                lambda s, *ms: verify_complex(_chain(s, ms))),
    "be": ("<matrix> [<matrix> ...]",
           lambda s, *ms: buchsbaum_eisenbud(_chain(s, ms), {})),
    "syzygetic": ("<ideal H> <poly f> <ideal I>",
                  lambda s, h, f, i: syzygetic_obstruction(
                      s.ideal(h), s.poly(f), s.ideal(i))),
}


def _run_command(sess: _Session, op: str, args):
    """The output lines of a computation, or the report of a claim."""
    usage, handler = RUN_COMMANDS[op]
    required, bracket, _ = usage.partition("[")
    count = required.count("<")
    if len(args) < count or (len(args) > count and not bracket):
        raise UsageError(f"usage: {op} {usage}")
    return handler(sess, *args)


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
