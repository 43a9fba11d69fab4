"""Time of each claim of the four embedded bundles, in µs.

    python tests/bundle_cost.py [prime [N]]

runs every bundle of `corpus.CORPUS` N times (5 by default) over Q and
over GF(prime) (32003 by default) and prints, for each bundle and field,
the best of the N times of each claim in µs, and their sum. A claim is
timed as `verify_lemma` times it, from the previous report (the first from
the end of parsing) to the one the bundle yields. `verify_lemma` stores
whole milliseconds in `millis`, in which most claims read 0.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from idealkit.corpus import CORPUS  # noqa: E402
from idealkit.fields import GF  # noqa: E402


def claim_times(entry, field):
    """(claim, seconds) of each report of one bundle run, in chain order."""
    session = entry.session(field)
    times = []
    start = time.perf_counter()
    for report in entry.bundle(session):
        end = time.perf_counter()
        times.append((report.claim, end - start))
        start = end
    return times


def main(argv):
    prime = int(argv[0]) if argv else 32003
    runs = int(argv[1]) if len(argv) > 1 else 5
    for label, field in (("q", None), (f"fp:{prime}", GF(prime))):
        for lemma, entry in CORPUS.items():
            runs_times = [claim_times(entry, field) for _ in range(runs)]
            claims = [claim for claim, _ in runs_times[0]]
            best = [min(times[i][1] for times in runs_times)
                    for i in range(len(claims))]
            print(f"{lemma} over {label}: µs per claim, best of {runs}; "
                  f"sum {sum(best) * 1e6:.0f}")
            for claim, s in zip(claims, best):
                print(f"  {claim:<26} {s * 1e6:10.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
