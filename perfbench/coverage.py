"""Traffic coverage: wrapped public functions that no traced run reached.

    python3 perfbench/coverage.py .perfbench/trace-*.json.gz

Each argument is a span file written by `run.py --trace 1`. A span file
names every wrapped function, called or not, so a name with no span in any
file is code that none of the traced workloads runs.
"""

from __future__ import annotations

import collections
import gzip
import json
import sys


def main(paths):
    if not paths:
        print("usage: python3 perfbench/coverage.py <span files>", file=sys.stderr)
        return 2
    wrapped = set()
    calls = collections.Counter()
    for path in paths:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            doc = json.load(fh)
        names = doc["names"]
        wrapped.update(names)
        calls.update(names[i] for i in doc["name"])
        print(f"{path}: {doc['record']['workload']} seed {doc['record']['seed']}, "
              f"{len(doc['name'])} spans")
    unreached = sorted(wrapped - set(calls))
    print(f"{len(unreached)} of {len(wrapped)} wrapped functions never called:")
    for name in unreached:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
