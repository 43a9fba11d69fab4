"""idealkit benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload corpus|gb|session --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; idealkit is imported from its `src/`.
Each task is an `idealkit` command line passed to `idealkit.cli.main` in
this process, with stdout captured and checked. One client runs as many
whole passes over the workload's tasks as fit in S seconds, judging each
next pass by the last one, and at least one (two with --trace 1). Only
time spent in passes counts against S; the output checks between passes
do not.

Times are in reference seconds (see `Speed`): wall time scaled by the
machine's speed at that moment, which a fixed probe measures every
PROBE_EVERY_S while tasks run. The report also prints the wall-clock time
of every pass.

--trace 0 measures the end-to-end metrics. --trace 1 alternates untraced
and traced passes: traced passes give the per-layer metrics, and the
difference between the two kinds of pass is the tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import minigb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 1
MIN_TRACED_PASSES = 2          # one untraced and one traced
SETUP_REPEATS = 15
PROBE_REF_S = 0.001
PROBE_EVERY_S = 0.025
WORKLOADS = ("corpus", "gb", "session")


# -- setup ---------------------------------------------------------------------

def _purge():
    for name in [n for n in sys.modules if n == "idealkit" or n.startswith("idealkit.")]:
        del sys.modules[name]


def import_idealkit():
    """Import idealkit.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "idealkit", "cli.py")):
        raise SystemExit(f"error: no idealkit sources under {SRC}")
    if SRC in sys.path:
        sys.path.remove(SRC)
    sys.path.insert(0, SRC)
    _purge()
    cli = importlib.import_module("idealkit.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: idealkit imported from {cli.__file__}")
    return cli


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None.

    The search for a repository stops at the checkout's root, so a checkout
    that is not a work tree never reports the sha of a repository around it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "idealkit_threads_unset": "IDEALKIT_THREADS" not in os.environ,
    }


# -- machine speed ---------------------------------------------------------------

# Two small fixed ideals, one over Q and one over GF(32003), whose reduced
# bases the probe computes with the benchmark's own Groebner engine.
PROBE_IDEALS = (
    (("x^2 - 2*y*z", "y^2 - 3*x*z", "z^2 - x*y"), None),
    (("x + y + z", "x*y + y*z + z*x", "x*y*z - 1"), 32003),
)
PROBE_ORDER = minigb.degrevlex(3)
PROBE_INPUTS = [
    ([minigb.parse(g, ("x", "y", "z"), minigb.Field(p)) for g in gens], minigb.Field(p))
    for gens, p in PROBE_IDEALS
]


def _probe_work():
    """A fixed piece of work like idealkit's own: Buchberger on dicts of
    exponent tuples with Fraction and residue coefficients, by `minigb`,
    which shares no code with idealkit. The garbage collector is off while
    it runs, so the probe never pays for collecting idealkit's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for polys, field in PROBE_INPUTS:
            minigb.groebner(polys, PROBE_ORDER, field)
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The machine's current speed, probed while the workload runs.

    On a shared host the same work can take twice as long 50 ms later, and
    1.8 times as long for minutes on end. So a timer runs a short fixed
    probe every PROBE_EVERY_S, inside tasks too, and a task's time is
    reported in reference seconds: its wall time without the probes inside
    it, times the mean speed the probes measured over it (the probes just
    before and after it included), relative to a machine on which one probe
    takes PROBE_REF_S.
    """

    def __init__(self):
        self.rates = []             # probes per second, one per probe
        self.probe_s = 0.0          # wall time spent in probes

    def probe(self, *_signal):
        t0 = time.perf_counter()
        _probe_work()
        dt = time.perf_counter() - t0
        self.probe_s += dt
        self.rates.append(1 / dt)

    def clock(self):
        """Wall-clock seconds, probes left out."""
        return time.perf_counter() - self.probe_s

    def start(self):
        """Probe now and then every PROBE_EVERY_S until stop()."""
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def mark(self):
        """(clock, probe count), taken at either end of a timed span."""
        return self.clock(), len(self.rates)

    def reference(self, start, end):
        """Reference seconds between two marks; needs a probe after `end`."""
        (c0, n0), (c1, n1) = start, end
        rates = self.rates[n0 - 1:n1 + 1]
        return (c1 - c0) * statistics.fmean(rates) * PROBE_REF_S


# -- timing helpers ----------------------------------------------------------------

def tail_percentile(values):
    """(label, value) of the highest of p50/p90/p99/p99.9 that has at least
    ten samples beyond it, or None when there are too few samples."""
    n = len(values)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None
    return f"p{best:g}", percentile(values, best)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it. It is always one of the samples, so it never
    falls in the gap between two groups of tasks of different sizes."""
    data = sorted(values)
    return data[max(0, math.ceil(p / 100 * len(data)) - 1)]


def run_task(cli, argv):
    """(rc, stdout, stderr); rc is None when the command raised.

    `cli.main` is looked up per call so that a traced pass sees the wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising task is a failed task, not a crash
        rc = None
        err.write(repr(exc))
    return rc, out.getvalue(), err.getvalue()


# -- the loop --------------------------------------------------------------------

class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0             # reference seconds, as every time below
        self.raw_wall = 0.0         # wall-clock seconds, probes included
        self.split = {"q": 0.0, "fp": 0.0}
        self.task_s = []
        self.outputs = []
        self.claim_ms = {}


def run_pass(cli, plan, tracer, task_base, speed):
    p = Pass(tracer is not None)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    marks = []
    speed.start()
    try:
        for i, task in enumerate(plan.tasks):
            if tracer is not None:
                tracer.task = task_base + i
            start = speed.mark()
            rc, out, err = run_task(cli, task.argv)
            marks.append((start, speed.mark()))
            p.outputs.append((rc, out, err))
    finally:
        speed.stop()
        if tracer is not None:
            tracer.uninstall()
    p.raw_wall = time.perf_counter() - t0
    for task, (start, end) in zip(plan.tasks, marks):
        ref = speed.reference(start, end)
        p.task_s.append(ref)
        p.split[task.field] += ref
    p.wall = sum(p.task_s)
    return p


def measure(args):
    import workloads
    from spans import Tracer

    os.environ.pop("IDEALKIT_THREADS", None)
    record = run_record(args)
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}")

    speed = Speed()
    marks = []
    speed.start()
    try:
        for _ in range(SETUP_REPEATS):
            start = speed.mark()
            cli = import_idealkit()
            plan = workloads.build(args.workload, args.seed, workdir)
            marks.append((start, speed.mark()))
    finally:
        speed.stop()
    setup = [speed.reference(start, end) for start, end in marks]
    tracer = Tracer(speed.clock) if args.trace else None

    checker = workloads.Checker(plan)
    passes, failures = [], []
    attempted = 0
    measured = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p = run_pass(cli, plan, tracer if traced else None, attempted, speed)
        for i, (task, (rc, out, err)) in enumerate(zip(plan.tasks, p.outputs)):
            reason = checker.check(i, task, rc, out)
            if reason is not None:
                failures.append((len(passes), task.label, reason, err.strip()[-300:]))
        attempted += len(plan.tasks)
        if plan.workload == "corpus":
            p.claim_ms = workloads.claim_millis(plan.tasks, p.outputs)
        p.outputs = None
        passes.append(p)
        measured += p.raw_wall
        # stop before a pass that would take the time spent in passes past
        # --seconds, judging it by the last one; checks do not count
        least = MIN_TRACED_PASSES if tracer is not None else MIN_PASSES
        if len(passes) >= least and measured + p.raw_wall > args.seconds:
            break
    if "sympy" in sys.modules:
        failures.append((None, "process", "sympy was imported", ""))
    return record, plan, setup, passes, failures, attempted, tracer, speed


# -- metrics ---------------------------------------------------------------------

def end_to_end(setup, passes):
    walls = [p.wall for p in passes]
    task_ms = [t * 1000 for p in passes for t in p.task_s]
    series = {
        "setup_s": (setup, "s"),
        "wall_s": (walls, "s"),
        "wall_s.q": ([p.split["q"] for p in passes], "s"),
        "wall_s.fp": ([p.split["fp"] for p in passes], "s"),
    }
    metrics = {name: {"value": statistics.median(vals), "unit": unit}
               for name, (vals, unit) in series.items()}
    # A pass holds few tasks of very different sizes (corpus: 8, gb: 4).
    # Each task's median over the passes removes the noise of single
    # samples; the nearest-rank percentile over the task mix then reports
    # one task's median, never a point between two groups of tasks.
    per_task = [statistics.median(p.task_s[i] for p in passes) * 1000
                for i in range(len(passes[0].task_s))]
    metrics["task_ms.p50"] = {"value": percentile(per_task, 50), "unit": "ms"}
    metrics["task_ms.p90"] = {"value": percentile(per_task, 90), "unit": "ms"}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    series["task_ms"] = (task_ms, "ms")
    return metrics, series


IDEALOPS_SELF = (
    "Ideal.intersect", "Ideal.colon", "Ideal.colon_ideal", "Ideal.eliminate",
    "kernel_of_map", "rees_ideal", "Ideal.standard_monomials",
    "Ideal.krull_dim_quotient", "Ideal.min_generators_at_origin",
)
CERTIFY_SELF = (
    "buchsbaum_eisenbud", "grade_at_least", "is_regular_sequence",
    "syzygetic_obstruction", "verify_complex",
)
# (span name, stat, unit) for every per-layer metric read from spans.
LAYER_STATS = (
    [("parse.parse_session", "calls", "count"),
     ("parse.parse_session", "self_s", "s"),
     ("parse.parse_poly", "self_s", "s"),
     ("cli.main", "self_s", "s"),
     ("poly.Polynomial.divexact", "calls", "count"),
     ("poly.Polynomial.divexact", "self_s", "s"),
     ("poly.Polynomial.divexact", "errors", "count"),
     ("groebner.buchberger", "calls", "count"),
     ("groebner.buchberger", "self_s", "s"),
     ("groebner.buchberger", "basis_len", "count"),
     ("groebner.normal_form", "calls", "count"),
     ("groebner.normal_form", "self_s", "s"),
     ("idealops.Ideal.groebner", "calls", "count")]
    + [(f"idealops.{name}", "self_s", "s") for name in IDEALOPS_SELF]
    + [("matrix.PolyMatrix.det", "calls", "count"),
       ("matrix.PolyMatrix.det", "self_s", "s"),
       ("matrix.PolyMatrix.det", "nonzero_ratio", "ratio"),
       ("matrix.PolyMatrix.mul", "self_s", "s")]
    + [(f"certify.{name}", "self_s", "s") for name in CERTIFY_SELF]
)


def corpus_claims():
    """(bundle, claim) for every claim of the embedded bundles, in order."""
    cli = sys.modules["idealkit.cli"]
    return [(b, c) for b in cli.CORPUS for c in cli.CORPUS[b].claims]


def per_layer(passes, tracer):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    stats = tracer.summary()
    metrics = {}
    for span, stat, unit in LAYER_STATS:
        s = stats[span]
        if stat == "basis_len":
            value = s["value_sum"] / n
        elif stat == "nonzero_ratio":
            value = s["value_sum"] / s["calls"] if s["calls"] else 0.0
        else:
            value = s[stat] / n
        metrics[f"{span}.{stat}"] = {"value": value, "unit": unit}
    lookups, hits = tracer.cache_hits("idealops.Ideal.groebner", "groebner.buchberger")
    metrics["idealops.gb_cache.hit_ratio"] = {
        "value": hits / lookups if lookups else 0.0, "unit": "ratio"}
    # claim timings come from the untraced passes, so spans do not inflate them
    for key in corpus_claims():
        vals = [p.claim_ms.get(key, 0) for p in plain]
        metrics["corpus.{}.{}_ms".format(*key)] = {
            "value": statistics.median(vals), "unit": "ms"}
    traced_wall = statistics.median(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.spans"] = {"value": tracer.span_count() / n, "unit": "count"}
    return metrics, stats


# -- report ----------------------------------------------------------------------

def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_timings(series):
    print(f"{'timing':<14}{'median':>12}{'tail':>20}{'n':>7}  unit")
    for name, (vals, unit) in series.items():
        tail = tail_percentile(vals)
        tail_text = f"{tail[0]}={tail[1]:.6g}" if tail else "-"
        print(f"{name:<14}{statistics.median(vals):>12.6g}{tail_text:>20}"
              f"{len(vals):>7}  {unit}")


# Functions whose calls the report breaks down by task.
BREAKDOWN = ("matrix.PolyMatrix.det", "poly.Polynomial.divexact", "groebner.buchberger")


def print_breakdown(plan, tracer):
    """Calls per task of one traced pass, with nonzero results for det."""
    ntasks = len(plan.tasks)
    for name in BREAKDOWN:
        rows = {}
        for task, (calls, value) in tracer.per_task(name).items():
            label = plan.tasks[task % ntasks].label
            if label not in rows:
                rows[label] = (calls, value)
        if not rows:
            continue
        parts = []
        for label, (calls, value) in rows.items():
            extra = f" ({value} nonzero)" if name == "matrix.PolyMatrix.det" else ""
            parts.append(f"{label}={calls}{extra}")
        print(f"{name} calls per task: " + ", ".join(parts[:24])
              + (" ..." if len(parts) > 24 else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record, plan, setup, passes, failures, attempted, tracer, speed = measure(args)
    print("run record: " + json.dumps(record))
    print(f"workload {plan.workload}  seed {plan.seed}  prime {plan.prime}  "
          f"passes {len(passes)}  tasks/pass {len(plan.tasks)}")
    for pass_no, label, reason, err in failures[:20]:
        print(f"FAILED pass {pass_no} {label}: {reason} {err}".rstrip())
    print("pass wall_s: " + " ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    print("pass wall-clock s: " + " ".join(f"{p.raw_wall:.3f}" for p in passes))
    probes = [1000 / r for r in speed.rates]
    print(f"speed probe ms: median {statistics.median(probes):.3f}  "
          f"min {min(probes):.3f}  max {max(probes):.3f}  n {len(probes)}  "
          f"(reference {PROBE_REF_S * 1000:g})")
    failed = len(failures)
    print(f"fail_ratio {failed / attempted:.6g}  ({failed} of {attempted} tasks)")

    if tracer is None:
        metrics, series = end_to_end(setup, passes)
        print_timings(series)
    else:
        metrics, stats = per_layer(passes, tracer)
        unreached = sorted(n for n, s in stats.items() if s["calls"] == 0)
        print(f"traced passes {sum(p.traced for p in passes)}  "
              f"spans {tracer.span_count()}")
        print("wrapped functions no task reached: " + ", ".join(unreached))
        print_breakdown(plan, tracer)
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{plan.workload}-s{plan.seed}.json.gz")
        tracer.write(path, record)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    for name, m in metrics.items():
        print(f"{name:<48}{_fmt(m['value']):>14}  {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
