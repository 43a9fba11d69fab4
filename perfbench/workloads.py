"""Seeded inputs and output checks for the three benchmark workloads.

A workload is a list of tasks. Each task is one `idealkit` command line,
run through `idealkit.cli.main` in the benchmark's own process. The seed
decides every input; the program sees only the generated session files
and command lines.

- corpus:  `verify --lemma <id> --format json` for the four bundles, over Q
           and over a seeded GF(p).
- gb:      `run <file> gb I` on cyclic-6 and katsura in 7 variables, with
           seeded generator scaling, over Q and a seeded GF(p).
- session: a seeded set of small binomial-ideal sessions, each running the
           `run` command mix, plus a monomial-curve kernel per session.

Checks never call into idealkit. The first pass of the session workload
is compared with `minigb`, a small Groebner engine of the benchmark's own;
every later pass must repeat the first.
"""

from __future__ import annotations

import json
import os
import random
import re
from math import gcd
from dataclasses import dataclass, field

import minigb

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

BUNDLES = ("lemma2", "lemma3", "lemma4", "huneke")
GB_SYSTEMS = ("cyclic6", "katsura7")
SESSIONS = 20
SESSION_VARS = ("x", "y", "z", "t")


@dataclass
class Task:
    argv: list
    field: str                      # "q" or "fp"
    label: str                      # stable name, e.g. "lemma4/q"
    kind: str                       # what the check looks at
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    prime: int
    tasks: list
    files: dict                     # path -> text


# -- seeded numbers -----------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def seeded_prime(rng: random.Random) -> int:
    """The first prime at or above a number drawn from [10^4, 10^5)."""
    n = rng.randrange(10_000, 100_000)
    while not _is_prime(n):
        n += 1
    return n


# -- polynomial systems ---------------------------------------------------------

def cyclic(n: int):
    """(variables, generators) of the cyclic-n system, as session text."""
    names = [f"x{i}" for i in range(n)]
    gens = []
    for k in range(1, n):
        gens.append(" + ".join(
            "*".join(names[(i + j) % n] for j in range(k)) for i in range(n)))
    gens.append("*".join(names) + " - 1")
    return names, gens


def katsura(nvars: int):
    """(variables, generators) of the katsura system in nvars variables."""
    n = nvars - 1
    names = [f"u{i}" for i in range(nvars)]

    def u(m):
        m = abs(m)
        return names[m] if m <= n else None

    gens = []
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1)
                 if u(l) and u(m - l)]
        gens.append(" + ".join(terms) + f" - {names[m]}")
    gens.append(" + ".join(u(l) for l in range(-n, n + 1)) + " - 1")
    return names, gens


SYSTEMS = {
    "cyclic5": lambda: cyclic(5),
    "cyclic6": lambda: cyclic(6),
    "katsura6": lambda: katsura(6),
    "katsura7": lambda: katsura(7),
}


def scaled_system(name: str, rng: random.Random) -> str:
    """Session text: each generator times a nonzero constant.

    The constants are integers below 100 in absolute value, so they stay
    nonzero modulo any prime the benchmark draws, and the reduced basis is
    the same as for the plain system. The generators keep their order:
    Buchberger's work depends on it, and over GF(p) a shuffled order made
    one seed's pass do 10% more monomial multiplications than another's.
    """
    names, gens = SYSTEMS[name]()
    scaled = []
    for g in gens:
        c = rng.choice((-1, 1)) * rng.randint(2, 99)
        scaled.append(f"{c}*({g})")
    return f"ring Q[{', '.join(names)}];\nideal I = {', '.join(scaled)};\n"


# -- session generation ---------------------------------------------------------

def _monomial(rng, degree):
    exps = [0] * len(SESSION_VARS)
    for _ in range(degree):
        exps[rng.randrange(len(SESSION_VARS))] += 1
    return exps


def _mono_text(exps):
    parts = []
    for name, e in zip(SESSION_VARS, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def _binomial_shape(rng):
    """Exponents (a, b) of a binomial x^a - c*x^b: degree 2, disjoint support."""
    while True:
        a = _monomial(rng, 2)
        b = _monomial(rng, 2)
        if a != b and not any(x and y for x, y in zip(a, b)):
            return a, b


def session_text(shape: random.Random, rng: random.Random):
    """One session: binomial ideals I and J, an m-primary A, polys, a matrix.

    `shape` fixes the monomials of the session: the exponent pattern, the
    order of the variables and the pure powers of A. `rng` (the seed) draws
    the coefficients. The cost of every command depends mostly on the
    monomials, so keeping them fixed per session file keeps the seeds
    comparable. Returns the session text and its objects as polynomial
    texts.
    """
    I = [_binomial_shape(shape) for _ in range(3)]
    J = [_binomial_shape(shape) for _ in range(2)]
    f = _monomial(shape, shape.randint(1, 2))
    g = [_monomial(shape, shape.randint(2, 4)) for _ in range(3)]
    M = [[_monomial(shape, k) if k else None
          for k in (shape.randrange(3) for _ in range(3))] for _ in range(3)]

    perm = list(range(len(SESSION_VARS)))
    shape.shuffle(perm)

    def mono(exps):
        return _mono_text([exps[perm[i]] for i in range(len(exps))])

    def binomial(pair):
        c = rng.choice(("", "2*", "3*"))
        return f"{mono(pair[0])} - {c}{mono(pair[1])}"

    objects = {"f": mono(f), "g": " + ".join(mono(e) for e in g),
               "I": [binomial(b) for b in I]}
    objects["A"] = objects["I"] + [f"{v}^{shape.randint(2, 4)}" for v in SESSION_VARS]
    objects["J"] = [binomial(b) for b in J]
    objects["M"] = [["0" if e is None else mono(e) for e in row] for row in M]
    rows = " ; ".join(", ".join(row) for row in objects["M"])
    text = (
        f"ring Q[{', '.join(SESSION_VARS)}];\n"
        f"poly f = {objects['f']};\n"
        f"poly g = {objects['g']};\n"
        f"ideal I = {', '.join(objects['I'])};\n"
        f"ideal J = {', '.join(objects['J'])};\n"
        f"ideal A = {', '.join(objects['A'])};\n"
        f"matrix M 3x3 = [ {rows} ];\n"
    )
    return text, objects


def curve_exponents(rng: random.Random):
    """Exponents a < b < c with gcd 1 for the curve s -> (s^a, s^b, s^c)."""
    while True:
        a, b, c = sorted(rng.sample(range(2, 8), 3))
        if gcd(gcd(a, b), c) == 1:
            return a, b, c


SESSION_MIX = (
    ("gb", ["gb", "I"]),
    ("nf", ["nf", "I", "g"]),
    ("colon_poly", ["colon", "I", "f"]),
    ("colon_ideal", ["colon", "I", "J"]),
    ("intersect", ["intersect", "I", "J"]),
    ("eliminate", ["eliminate", "I", "x"]),
    ("rees", ["rees", "I"]),
    ("lineartype", ["lineartype", "I"]),
    ("dim", ["dim", "I"]),
    ("colength", ["colength", "A"]),
    ("minors", ["minors", "M", "2"]),
)


# -- plans ---------------------------------------------------------------------

def _field_args(prime):
    return (("q", []), ("fp", ["--field", f"fp:{prime}"]))


def build(workload: str, seed: int, workdir: str) -> Plan:
    """Generate the inputs of one workload and write its session files."""
    rng = random.Random(f"{workload}:{seed}")
    prime = seeded_prime(rng)
    tasks, files = [], {}
    if workload == "corpus":
        for bundle in BUNDLES:
            for fld, extra in _field_args(prime):
                tasks.append(Task(
                    ["verify", "--lemma", bundle, "--format", "json"] + extra,
                    fld, f"{bundle}/{fld}", "corpus", {"bundle": bundle}))
    elif workload == "gb":
        for system in GB_SYSTEMS:
            path = os.path.join(workdir, f"{system}.ikt")
            files[path] = scaled_system(system, rng)
            for fld, extra in _field_args(prime):
                tasks.append(Task(["run", path, "gb", "I"] + extra,
                                  fld, f"{system}/{fld}", "basis",
                                  {"system": system}))
    elif workload == "session":
        for k in range(SESSIONS):
            path = os.path.join(workdir, f"session{k:02d}.ikt")
            shape = random.Random(f"shape:{k}")
            files[path], objects = session_text(shape, rng)
            curve = curve_exponents(shape)
            cpath = os.path.join(workdir, f"curve{k:02d}.ikt")
            files[cpath] = "ring Q[s];\n"
            for fld, extra in _field_args(prime):
                for name, args in SESSION_MIX:
                    tasks.append(Task(["run", path] + args + extra, fld,
                                      f"s{k:02d}/{name}/{fld}", name,
                                      {"objects": objects}))
                images = [f"s^{e}" for e in curve]
                tasks.append(Task(["run", cpath, "kernel"] + images + extra,
                                  fld, f"s{k:02d}/kernel/{fld}", "kernel",
                                  {"curve": curve}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return Plan(workload, seed, prime, tasks, files)


# -- checks --------------------------------------------------------------------

def strip_millis(obj):
    if isinstance(obj, dict):
        return {k: strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [strip_millis(v) for v in obj]
    return obj


def canonical_corpus(text: str) -> str:
    """A bundle's JSON report without timings, in the stored layout."""
    return json.dumps(strip_millis(json.loads(text)), indent=2) + "\n"


def claim_millis(tasks, outputs):
    """{(bundle, claim): millis summed over both fields} for one pass."""
    out = {}
    for task, (rc, text, _err) in zip(tasks, outputs):
        try:
            claims = json.loads(text)["claims"]
        except (ValueError, KeyError):
            continue
        for c in claims:
            key = (task.info["bundle"], c["claim"])
            out[key] = out.get(key, 0) + c["millis"]
    return out


def reference_text(name):
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as fh:
        return fh.read()


def lead_monomials(text: str):
    """Lead monomial of each basis line: reduced bases are monic, and the
    printed form lists terms lead first, so it is the first token."""
    return [line.split(" ", 1)[0] for line in text.splitlines()]


MILLIS = re.compile(r"\[\d+ ms\]")


class Checker:
    """Check each task's output; every pass must repeat the first."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.first: dict = {}
        self.refs: dict = {}

    def _ref(self, name):
        if name not in self.refs:
            self.refs[name] = reference_text(name)
        return self.refs[name]

    def check(self, index, task, rc, out):
        """None when the output is right, else a one-line reason."""
        if rc is None or rc == 2:
            return f"exit {rc}"
        if task.kind == "corpus":
            try:
                out = canonical_corpus(out)
            except ValueError:
                return "output is not a JSON report"
        elif task.kind == "lineartype":
            out = MILLIS.sub("", out)
        if index in self.first:
            if self.first[index] != (rc, out):
                return "output differs from the first pass"
            return None
        reason = self._check_first(task, rc, out)
        if reason is None:
            self.first[index] = (rc, out)
        return reason

    def _check_first(self, task, rc, out):
        if task.kind == "corpus":
            if rc != 0:
                return f"exit {rc}"
            if task.field == "q":
                ref = self._ref(f"corpus_{task.info['bundle']}.json")
                return None if out == ref else \
                    "report differs from the stored reference"
            claims = json.loads(out)["claims"]
            bad = [c["claim"] for c in claims if c["status"] != "verified"]
            return f"not verified: {bad}" if bad else None
        if task.kind == "basis":
            ref = self._ref(f"gb_{task.info['system']}.txt")
            if task.field == "q":
                return None if out == ref else "basis differs from the reference"
            return None if lead_monomials(out) == lead_monomials(ref) else \
                "lead monomials differ from the basis over Q"
        return session_check(task, self.plan.prime, rc, out)


# Names of the ring each basis-valued session command prints its result in.
RESULT_NAMES = {
    "eliminate": SESSION_VARS[1:],
    "rees": ("T1", "T2", "T3") + SESSION_VARS,
    "kernel": ("x", "y", "z"),
}


def session_expected(task, prime):
    """What one session task must print, computed with `minigb`.

    A list of polynomials for basis-valued commands (a reduced basis, so
    the set of its elements is unique), a list in scan order for `minors`,
    one polynomial for `nf`, a line of text for `dim` and `colength`, and
    a bool for `lineartype`.
    """
    F = minigb.Field(None if task.field == "q" else prime)
    if task.kind == "kernel":
        return minigb.curve_kernel(task.info["curve"], F)
    n = len(SESSION_VARS)
    obj = {}
    for name, value in task.info["objects"].items():
        if name == "M":
            obj[name] = [[minigb.parse(e, SESSION_VARS, F) for e in row]
                         for row in value]
        elif isinstance(value, list):
            obj[name] = [minigb.parse(e, SESSION_VARS, F) for e in value]
        else:
            obj[name] = minigb.parse(value, SESSION_VARS, F)
    key = minigb.degrevlex(n)
    I, J = obj["I"], obj["J"]
    kind = task.kind
    if kind == "gb":
        return minigb.groebner(I, key, F)
    if kind == "nf":
        return minigb.reduce(obj["g"], minigb.groebner(I, key, F), key, F)
    if kind == "colon_poly":
        return minigb.colon(I, obj["f"], n, F)
    if kind == "colon_ideal":
        return minigb.colon_ideal(I, J, n, F)
    if kind == "intersect":
        return minigb.intersect(I, J, n, F)
    if kind == "eliminate":
        return minigb.eliminate_front(I, 1, (n - 1,), F)
    if kind == "rees":
        return minigb.rees(I, n, F)
    if kind == "lineartype":
        return minigb.linear_type(I, n, F)
    if kind == "dim":
        return str(minigb.krull_dim(minigb.groebner(I, key, F), n))
    if kind == "colength":
        count = minigb.colength(minigb.groebner(obj["A"], key, F), n)
        return "infinite" if count is None else str(count)
    if kind == "minors":
        return minigb.minors2(obj["M"], n, F)
    raise ValueError(f"unknown session task {kind!r}")


def session_check(task, prime, rc, out):
    """None when a session output equals what `minigb` computes."""
    expected = session_expected(task, prime)
    lines = out.splitlines()
    if task.kind == "lineartype":
        status = "verified" if expected else "refuted"
        if rc != (0 if expected else 1) or not lines \
                or not lines[0].startswith(f"linear_type: {status} "):
            return f"linear type should be {status}"
        return None
    if rc != 0:
        return f"exit {rc}"
    if isinstance(expected, str):
        return None if lines == [expected] else f"expected {expected}"
    F = minigb.Field(None if task.field == "q" else prime)
    names = RESULT_NAMES.get(task.kind, SESSION_VARS)
    got = [minigb.parse(line, names, F) for line in lines]
    if task.kind == "nf":
        return None if got == [expected] else "normal form differs"
    if task.kind == "minors":
        same = [frozenset(p.items()) for p in got] == \
               [frozenset(p.items()) for p in expected]
        return None if same else "minors differ"
    if not expected:
        return None if lines == ["0"] else "the zero ideal must print as 0"
    if len(got) != len(expected) or minigb.frozen(got) != minigb.frozen(expected):
        return "basis differs from the independent computation"
    return None
