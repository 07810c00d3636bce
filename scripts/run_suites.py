#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

The last line is the process's own peak resident set size,
`peak_rss_mb <MB>`: VmHWM from /proc/self/status, which counts only this
process image (ru_maxrss, the fallback where /proc is absent, also counts
the parent it was forked from).  Exit code is nonzero when any item fails.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from qhc.suites import SUITES, run_verify_suite


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    try:
        with open("/proc/self/status") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="restrict to the given suite(s); default runs all")
    ap.add_argument("--json-dir", type=Path, default=None,
                    help="also write one JSON report per suite into this directory")
    args = ap.parse_args()
    names = args.suite or list(SUITES)
    any_failed = False
    for name in names:
        t0 = time.perf_counter()
        rep = run_verify_suite(name)
        dt = time.perf_counter() - t0
        total = rep["passed"] + rep["failed"]
        mark = "ok  " if rep["pass"] else "FAIL"
        print(f"{mark} {name:16s} {rep['passed']:3d}/{total:<3d} items   {dt:7.3f}s")
        if not rep["pass"]:
            any_failed = True
            for it in rep["items"]:
                if not it["pass"]:
                    print(f"      failed: {it['name']} {it.get('detail', '')}")
        if args.json_dir:
            args.json_dir.mkdir(parents=True, exist_ok=True)
            (args.json_dir / f"{name}.json").write_text(json.dumps(rep, indent=2) + "\n")
    print(f"peak_rss_mb {peak_rss_mb():.2f}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
