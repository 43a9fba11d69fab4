"""Rewrite the stored outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a checkout. It writes, under perfbench/reference/:

- corpus_<bundle>.json: `verify --lemma <bundle> --format json` over Q,
  with every `millis` removed;
- gb_<system>.txt: `run <file> gb I` over Q on the unscaled system.

Only rerun it for a change that is meant to alter these outputs, and say
why in CHANGES.md; `test_oracle.py` checks the gb references with sympy.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import run
import workloads


def _capture(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def main():
    cli = run.import_idealkit()
    os.makedirs(workloads.REFERENCE, exist_ok=True)
    for bundle in workloads.BUNDLES:
        text = _capture(cli.main, ["verify", "--lemma", bundle, "--format", "json"])
        with open(os.path.join(workloads.REFERENCE, f"corpus_{bundle}.json"),
                  "w", encoding="utf-8") as fh:
            fh.write(workloads.canonical_corpus(text))
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for system in workloads.GB_SYSTEMS:
            names, gens = workloads.SYSTEMS[system]()
            path = os.path.join(tmp, f"{system}.ikt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"ring Q[{', '.join(names)}];\nideal I = {', '.join(gens)};\n")
            text = _capture(cli.main, ["run", path, "gb", "I"])
            with open(os.path.join(workloads.REFERENCE, f"gb_{system}.txt"),
                      "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
