"""Import time of `idealkit.cli` with warm bytecode, module by module.

    python tests/import_time.py

runs `python -X importtime -c "import idealkit.cli"` once to warm the
bytecode cache and then `RUNS` times, each in a fresh
interpreter started with -S, so that site hooks of the environment import
nothing first. `PYTHONDONTWRITEBYTECODE` is unset and `PYTHONPYCACHEPREFIX`
points at a temporary directory, so bytecode is cached there and the
checkout gets no `__pycache__`. Prints, in ms, each idealkit module's best
self time, the sum of those, and the best total of the import, which also
counts every standard-library module that idealkit pulls in.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 5


def import_times(env):
    """Self time of each idealkit module and the total, in µs, of one
    `import idealkit.cli` in a fresh interpreter."""
    err = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import idealkit.cli"],
        env=env, capture_output=True, text=True, check=True).stderr
    own, total = {}, 0
    for line in err.splitlines():
        head, cumulative, name = line.split("|")
        self_us = head.rpartition(":")[2].strip()
        if not self_us.isdigit() or not name.strip().startswith("idealkit"):
            continue
        own[name.strip()] = int(self_us)
        if not name[1:].startswith(" "):  # a top-level import
            total += int(cumulative)
    return own, total


def main():
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        import_times(env)
        samples = [import_times(env) for _ in range(RUNS)]
    best = {name: min(own[name] for own, _ in samples) for name in samples[0][0]}
    for name, self_us in best.items():
        print(f"{name:<20} {self_us / 1000:6.2f}")
    print(f"{'idealkit modules':<20} {sum(best.values()) / 1000:6.2f}")
    total = min(total for _, total in samples)
    print(f"{'import idealkit.cli':<20} {total / 1000:6.2f}")


if __name__ == "__main__":
    main()
