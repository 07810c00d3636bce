"""One cold benchmark process.

    python perfbench/child.py setup
    python perfbench/child.py suites moment [psibar ...] [--trace] [--spans FILE]
    python perfbench/child.py cli [--trace] -- normalize --algebra daha "T*T"

Each mode prints one JSON object as the last line of standard output.
``setup`` and ``suites`` time the import of qhc plus the build of the seven
algebra specs (``setup_s``) before the first workload call, then time the
host-speed calibration loop a few times (``setup_cal``); ``suites`` then
times the named suites (``verdict_s``).  Untraced, the suites run under a
``hostspeed.Sampler``: ``verdict_cal`` holds its loop times and
``verdict_ticks_s`` the time its ticks took, already taken out of
``verdict_s``.  ``cli`` runs one command-line request in-process, with the
tracer installed, and returns what the request printed.  The tracer is
installed after set-up, so set-up is never traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import hostspeed

SETUP_CAL_SAMPLES = 5


def setup() -> dict:
    t0 = time.perf_counter()
    from qhc import daha, dqops, invham, qgroup, suites  # noqa: F401

    for build in (daha.daha_spec, daha.sdaha_spec, qgroup.uq_spec, qgroup.oq_spec,
                  dqops.dq_spec, invham.inv_spec, invham.ham_spec):
        build()
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "setup_cal": [hostspeed.sample() for _ in range(SETUP_CAL_SAMPLES)]}


def _tracer():
    import tracer

    tr = tracer.Tracer()
    tr.install()
    return tr


def run_suites(names: list[str], trace: bool, spans_path: str | None) -> dict:
    out = setup()
    from qhc import suites

    tr = _tracer() if trace else None
    # the tracer's spans would count the sampler's ticks, so traced runs go without
    sampler = contextlib.nullcontext() if trace else hostspeed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        reports = [suites.run_verify_suite(name) for name in names]
        wall_s = time.perf_counter() - t0
    if trace:
        out.update(verdict_s=wall_s, verdict_cal=None, verdict_ticks_s=0.0)
    else:
        out.update(verdict_s=wall_s - sampler.ticks_s, verdict_cal=sampler.samples,
                   verdict_ticks_s=sampler.ticks_s)
    out["items"] = {rep["suite"]: [[it["name"], it["pass"]] for it in rep["items"]] for rep in reports}
    if tr is not None:
        out["raw"] = tr.raw()
        if spans_path:
            tr.write_spans(spans_path)
    return out


def run_cli(argv: list[str], trace: bool) -> dict:
    t0 = time.perf_counter()
    from qhc import cli

    startup_s = time.perf_counter() - t0
    tr = _tracer() if trace else None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
    out = {"status": status, "stdout": buf.getvalue()}
    if tr is not None:
        raw = tr.raw()
        raw["cli_startup_s"] = startup_s
        out["raw"] = raw
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("suites")
    p.add_argument("names", nargs="+")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write the span table to this file")
    p = sub.add_parser("cli")
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.mode == "setup":
        result = setup()
    elif args.mode == "suites":
        result = run_suites(args.names, args.trace, args.spans)
    else:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        result = run_cli(argv, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
