"""Steadiness check: run one workload k times and compare spreads to bounds.

    python3 perfbench/steady.py --workload session --runs 10 [--sets 2]

Run from the root of a checkout. Each run is `perfbench/run.py` with its own
seed (1, 2, ..., k) and the `run_seconds` of BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the distance
between the quartiles as a share of the median, against the metric's bound.
A spread below a third of the bound is `steady`, one within the bound
`within bound`, and a wider one fails. With --sets 2 the same seeds run
twice and the second median must not be worse than the first by more than
the bound. Exit code 0 when every run passed its output checks and every
test passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_set(args, spec):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    all_ok = True
    for seed in range(1, args.runs + 1):
        result = one_run(args.workload, seed, spec["run_seconds"])
        ok = result["correct"] and result["failed"] == 0
        row = " ".join(f"{name}={result['metrics'][name]['value']:.6g}" for name in values)
        print(f"  seed {seed}: correct={ok} attempted={result['attempted']} {row}",
              flush=True)
        if not ok:
            all_ok = False
            print(f"  seed {seed} FAILED its output checks", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values, all_ok


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs needs at least 2 runs for quartiles")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    good = True
    for n in range(args.sets):
        print(f"set {n + 1}: {args.runs} runs of {args.workload}, "
              f"{spec['run_seconds']} s each", flush=True)
        values, ok = run_set(args, spec)
        sets.append(values)
        good = good and ok
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>8}  verdict")
    for name, m in metrics.items():
        for n, values in enumerate(sets):
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            s = spread(vals)
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict, good = "TOO WIDE", False
            label = name if n == 0 else f"  set {n + 1}"
            print(f"{label:<14}{statistics.median(vals):>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{s:>9.3f}{m['bound']:>8.3f}  {verdict}")
        if len(sets) == 2:
            m1 = statistics.median(sets[0][name])
            m2 = statistics.median(sets[1][name])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            ok = worse <= m["bound"]
            good = good and ok
            print(f"{'  drift':<14}{worse:>+12.3f}{'':>33}{m['bound']:>8.3f}  "
                  f"{'ok' if ok else 'WORSE THAN BOUND'}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
