#!/usr/bin/env python3
"""Run the rank checks of the isomorphism to bidegree (K, K) and print each
value next to its closed series, with the time of each piece.

For every bidegree (m, n) with m, n <= K one line gives the spherical
series, the sandwich rank (spherical_dimensions) and the phi rank
(phi_ranks), then the invariant series, the psibar rank (psibar_ranks) and
the kernel of E (invariant_dimensions).  The ranks are lower bounds and the
kernel an upper bound, so where all three of the second group meet the
series the invariant dimension is certified.  The last line is the process's
own peak resident set size, as scripts/run_suites.py prints it.  Exit code
is nonzero when any value differs from its series.

Example:
    python scripts/scale_report.py --max 5
"""

import argparse
import sys
import time

from qhc.daha import phi_ranks, spherical_dimensions
from qhc.invham import invariant_dimensions, psibar_ranks
from qhc.suites import invariant_series, spherical_series
from run_suites import peak_rss_mb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max", type=int, default=4, metavar="K")
    K = ap.parse_args().max
    bidegrees = [(m, n) for m in range(K + 1) for n in range(K + 1)]
    pieces = {
        "spherical_dimensions": lambda: spherical_dimensions(bidegrees),
        "phi_ranks": lambda: phi_ranks(bidegrees),
        "psibar_ranks": lambda: psibar_ranks(bidegrees),
        "invariant_dimension": lambda: invariant_dimensions(bidegrees),
    }
    values = {}
    for name, run in pieces.items():
        t0 = time.perf_counter()
        values[name] = run()
        print(f"{name:22s} {time.perf_counter() - t0:8.3f}s")
    sph, inv = spherical_series(K, K), invariant_series(K, K)
    print(f"{'(m,n)':7s} {'sph':>4s}: {'sandwich':>8s} {'phi':>3s} {'inv':>6s}: {'psibar':>6s} {'ker(E)':>6s}")
    mismatches = 0
    for d in bidegrees:
        got = [values[name][d] for name in pieces]
        want = [sph.get(d, 0)] * 2 + [inv.get(d, 0)] * 2
        bad = got != want
        mismatches += bad
        print(f"{str(d):7s} {want[0]:4d}: {got[0]:8d} {got[1]:3d} {want[2]:6d}: {got[2]:6d} {got[3]:6d}"
              + ("  MISMATCH" if bad else ""))
    print(f"all {len(bidegrees)} bidegrees match the series" if not mismatches
          else f"{mismatches} bidegrees differ from the series")
    print(f"peak_rss_mb {peak_rss_mb():.2f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
