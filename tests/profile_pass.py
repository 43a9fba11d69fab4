"""Self time of one pass of a benchmark workload, by source file.

    python tests/profile_pass.py corpus|gb|session q|fp [seed [N]]

builds the workload (seed 1 by default) with `perfbench/workloads.build` in
a temporary directory, runs the tasks of one field through `cli.main` once
to warm up and once under cProfile, and prints each file's share of the
self time; `~` stands for built-in functions. With N it then prints the N
functions with the most self time, as file:line(function), with their
share: the table by file does not show which function of a file takes it.
"""

import contextlib
import cProfile
import io
import os
import pstats
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from idealkit import cli  # noqa: E402
import workloads  # noqa: E402


def run_pass(tasks):
    for task in tasks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with contextlib.suppress(SystemExit):
                cli.main(task.argv)


def main(workload, field, seed="1", top="0"):
    with tempfile.TemporaryDirectory() as workdir:
        plan = workloads.build(workload, int(seed), workdir)
        tasks = [task for task in plan.tasks if task.field == field]
        run_pass(tasks)
        profile = cProfile.Profile()
        profile.runcall(run_pass, tasks)
    shares, functions = Counter(), Counter()
    for (path, line, name), stat in pstats.Stats(profile).stats.items():
        shares[Path(path).stem] += stat[2]  # self time
        functions[f"{Path(path).stem}:{line}({name})"] += stat[2]
    total = sum(shares.values())
    for name, self_s in shares.most_common():
        print(f"{name:<16} {100 * self_s / total:5.1f}%")
    if int(top):
        print()
    for name, self_s in functions.most_common(int(top)):
        print(f"{name:<48} {100 * self_s / total:5.1f}%")


if __name__ == "__main__":
    try:
        main(*sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. As in `cli.main`,
        # stdout goes to devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
