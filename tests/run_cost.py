"""Fixed costs of the `run` commands of the `session` workload.

    python tests/run_cost.py

builds the seed-1 `session` plan with `perfbench/workloads.build` in a
temporary directory and prints, for each field, the best of 5 in µs per
call (each of the 5 times the mean over 20 passes of the calls) of:
- `parse_session` over the 20 session files;
- a `_Packing` build at width 8 in the session ring;
- `buchberger` on each of the ideals I, J and A, with the packings of the
  ring dropped before each call, since every `run` parses a new ring.

Then it runs one pass of the plan's tasks through `cli.main` to warm up and
one more, and prints the time of each command summed over that pass, in ms.
"""

import contextlib
import io
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from idealkit import cli  # noqa: E402
from idealkit.fields import GF  # noqa: E402
from idealkit.groebner import _Packing, buchberger  # noqa: E402
from idealkit.parse import parse_session  # noqa: E402
import workloads  # noqa: E402

RUNS = 5
LOOPS = 20


def best_us(call, args):
    """Best of RUNS of the mean time of call(*a) over LOOPS passes of args,
    in µs."""
    args = args * LOOPS
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        for a in args:
            call(*a)
        best = min(best, (time.perf_counter() - start) / len(args))
    return best * 1e6


def fresh_basis(session, name):
    session.ring._packings.clear()
    return buchberger(session.ideals[name])


def main():
    with tempfile.TemporaryDirectory() as workdir:
        plan = workloads.build("session", 1, workdir)
        texts = [text for path, text in plan.files.items()
                 if Path(path).name.startswith("session")]
        for field, override in (("q", None), ("fp", GF(plan.prime))):
            sessions = [parse_session(text, override) for text in texts]
            ring = sessions[0].ring
            print(f"{field}: µs per call, best of {RUNS}")
            rows = [("parse_session",
                     best_us(parse_session, [(t, override) for t in texts])),
                    ("_Packing build", best_us(_Packing, [(ring, 8)] * 20))]
            for name in "IJA":
                rows.append((f"buchberger {name}", best_us(
                    fresh_basis, [(s, name) for s in sessions])))
            for label, us in rows:
                print(f"  {label:<16} {us:9.1f}")
        totals = {"q": Counter(), "fp": Counter()}
        for timed in (False, True):
            for task in plan.tasks:
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), \
                        contextlib.suppress(SystemExit):
                    cli.main(task.argv)
                if timed:
                    command = task.label.split("/")[1]
                    totals[task.field][command] += time.perf_counter() - start
    print("one pass: ms per command")
    for field, times in totals.items():
        cells = ", ".join(f"{command} {s * 1e3:.1f}"
                          for command, s in times.items())
        print(f"  {field}: {cells}; total {sum(times.values()) * 1e3:.1f}")

if __name__ == "__main__":
    main()
