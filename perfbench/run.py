#!/usr/bin/env python3
"""Cold-process verification benchmark for qhc.

    python3 perfbench/run.py --workload moment --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  Every operation runs in a fresh
child process, the way a user runs ``qhc verify --suite X`` or a README CLI
line, with ``QHC_THREADS=1`` and ``PYTHONHASHSEED=0`` pinned.

Workloads (see perfbench/README.md for why each was chosen):

* ``moment``  the moment suite;
* ``ranks``   hilbert-all then psibar in one child;
* ``ideal``   the ham suite;
* ``cli``     a closed loop, one client, one fresh ``python -m qhc`` per
  request, over the README examples plus seeded requests.

Suite workloads start cold children, and ``cli`` repeats its request list,
until ``--seconds`` have passed; each makes at least one.  Seven
set-up-only children per run give the ``setup_s`` median.  With
``--trace 1`` the run makes one untraced and one traced pass and reports
the per-layer metrics instead.

Times are reported in reference seconds (see hostspeed.py): wall seconds
scaled by the host's speed, measured by a fixed calibration loop timed next
to the work: inside a suite child every quarter second, inside a set-up
child right after set-up, and for ``cli`` as a cold calibration process
spawned like a request between requests.  The host factor is printed on its
own line.

Every output is checked: suite item lists against the pinned seed-commit
lists, CLI requests for exit status, ``"schema": 1``, pinned digests, and
word-algebra normal forms against the rightmost reduction.  A mismatch
counts as a failed operation.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SETUP_PROBES = 7
# a calibration process is timed before the first CLI request and after every
# CLI_CAL_EVERY requests
CLI_CAL_EVERY = 3
RUN_BUDGET_S = 170.0

CHILD_ENV_PINS = {"QHC_THREADS": "1", "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Child:
    """Outcome of one child process: exit status, output, wall time and
    peak resident memory from the child's own rusage."""

    def __init__(self, status, stdout, stderr, wall_s, rss_mb):
        self.status = status
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.rss_mb = rss_mb

    def result(self):
        """The JSON object a perfbench child prints last, or None."""
        lines = self.stdout.strip().splitlines()
        if self.status != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


class Runner:
    """Spawns children against a deadline so a run ends within its budget."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV_PINS)
        # children cache bytecode, as an installed package does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str]) -> Child:
        timeout = max(1.0, self.remaining())
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            # wait4 reaps the child and returns its own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no child running behind us
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, out.decode(), b"".join(err).decode(errors="replace"),
                     wall, usage.ru_maxrss / 1024.0)

    def perfbench(self, *args: str) -> Child:
        return self.spawn([sys.executable, str(HERE / "child.py"), *args])

    def qhc(self, argv) -> Child:
        return self.spawn([sys.executable, "-m", "qhc", *argv])

    def calibration(self) -> float:
        """Wall seconds of one cold calibration process."""
        child = self.spawn([sys.executable, str(HERE / "hostspeed.py")])
        if child.status != 0:
            raise RuntimeError(f"calibration process exited {child.status}: {child.stderr.strip()[-300:]}")
        return child.wall_s


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum (p100)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_suite_child(child: Child, suites: tuple, expected: dict, ledger: Ledger) -> dict | None:
    """One operation per pinned suite item; a crashed child fails them all."""
    res = child.result()
    crash = None if res is not None else f"child exited {child.status}: {child.stderr.strip()[-300:]}"
    for suite in suites:
        want = expected["suites"][suite]
        got = None if res is None else res["items"].get(suite)
        got_map = {} if got is None else {name: ok for name, ok in got}
        for name, ok in want:
            problems = []
            if crash:
                problems.append(crash)
            elif name not in got_map:
                problems.append("item missing")
            elif got_map[name] is not ok:
                problems.append(f"pass={got_map[name]}, pinned {ok}")
            ledger.record(f"{suite} / {name}", problems)
        if got is not None:
            extra = [name for name, _ in got if name not in {n for n, _ in want}]
            for name in extra:
                ledger.record(f"{suite} / {name}", ["item not in the pinned list"])
    return res


class CliChecker:
    """Checks one CLI response; reference values are computed once per
    request, outside the timed region."""

    def __init__(self, seed: int, requests: list[tuple], expected: dict):
        self.seed = seed
        self.requests = requests
        self.expected = expected
        self.first: dict[int, str] = {}
        self.rightmost: dict[int, list] = {}
        self._qhc = None

    def pinned(self, i: int) -> str | None:
        n_readme = len(workloads.README_EXAMPLES)
        if i < n_readme:
            return self.expected["readme_sha256"][i]
        if self.seed == workloads.DEFAULT_SEED:
            return self.expected["default_seed_sha256"][i - n_readme]
        return None

    def check(self, i: int, status: int, stdout: str) -> list[str]:
        problems = []
        if status != 0:
            return [f"exit status {status}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        if doc.get("schema") != 1:
            problems.append("schema is not 1")
        pin = self.pinned(i)
        if pin is not None and sha256(stdout) != pin:
            problems.append("stdout differs from the pinned digest")
        prev = self.first.setdefault(i, stdout)
        if prev != stdout:
            problems.append("stdout differs between identical requests")
        problems += self.reference_problems(i, doc)
        return problems

    def reference_problems(self, i: int, doc: dict) -> list[str]:
        argv = self.requests[i]
        verb = argv[0]
        alg = argv[2] if len(argv) > 2 and argv[1] == "--algebra" else None
        if verb in ("normalize", "mul") and alg in workloads.WORD_ALGEBRAS:
            if i not in self.rightmost:
                self.rightmost[i] = self.rightmost_terms(argv)
            if doc.get("terms") != self.rightmost[i]:
                return ["normal form differs from the rightmost reduction"]
        elif verb == "hilbert" and alg in ("sdaha", "ham", "inv"):
            M, N = int(argv[4]), int(argv[5])
            suites = self.qhc().suites
            series = (suites.invariant_series if alg == "inv" else suites.spherical_series)(M, N)
            got = {(m, n): d for m, n, d in doc.get("dims", [])}
            want = {(m, n): series.get((m, n), 0) for m in range(M + 1) for n in range(N + 1)}
            if got != want:
                return ["hilbert dimensions differ from the closed series"]
        elif verb == "rank":
            per_point = doc.get("per_point") or [None]
            if doc.get("rank") != max(per_point) or doc["rank"] > len(argv) - 3:
                return ["rank is not the maximum over points or exceeds the family size"]
        return []

    def qhc(self):
        if self._qhc is None:
            sys.path.insert(0, str(SRC))
            import qhc.cli
            import qhc.suites

            self._qhc = qhc
        return self._qhc

    def rightmost_terms(self, argv: tuple):
        """Normal form by the rightmost strategy; by confluence it must
        equal the CLI's (leftmost) answer."""
        ctx = self.qhc().cli.Context(argv[2])
        value = ctx.parse(argv[3])
        for src in argv[4:]:
            value = ctx.ops.mul(value, ctx.parse(src))
        return ctx.terms_json(ctx.spec.nf(value, "rightmost"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def end_to_end(setups, verdicts, rss, passes, factors):
    """The end-to-end metrics of one run, and what the tail was taken over.

    Times are in reference seconds.  ``passes`` holds the request latencies
    of each pass; the latency percentiles are taken per pass and their
    median over passes reported, so one pass caught in a slow spell of the
    host does not set them.  ``factors`` are the host factors the verdicts
    were scaled by, printed for the record.
    """
    tails = [tail(latencies) for latencies in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(verdicts), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "request_p50_s": (statistics.median(statistics.median(p) for p in passes), "s"),
        "request_tail_s": (statistics.median(t[0] for t in tails), "s"),
    }
    _, pct, n = tails[0]
    return metrics, {"tail_percentile": pct, "samples": n, "passes": len(passes),
                     "setup_samples": len(setups), "host_factor": statistics.median(factors)}


def reference_setup(res: dict) -> float:
    return res["setup_s"] * hostspeed.factor(res["setup_cal"])


def setup_probes(runner: Runner, ledger: Ledger, n: int) -> list[float]:
    out = []
    for _ in range(n):
        child = runner.perfbench("setup")
        res = child.result()
        if res is None:
            # not an operation of the workload, but a failure all the same
            ledger.record("setup", [f"setup child exited {child.status}: {child.stderr.strip()[-300:]}"])
        else:
            out.append(reference_setup(res))
    return out


def run_suite_workload(runner: Runner, name: str, seconds: float, trace: bool,
                       expected: dict, ledger: Ledger, seed: int):
    suites = workloads.SUITE_WORKLOADS[name]
    if trace:
        plain = runner.perfbench("suites", *suites)
        plain_res = check_suite_child(plain, suites, expected, ledger)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{name}-seed{seed}.spans.tsv"
        traced = runner.perfbench("suites", *suites, "--trace", "--spans", str(spans))
        traced_res = check_suite_child(traced, suites, expected, ledger)
        if plain_res is None or traced_res is None:
            return None
        overhead = traced_res["verdict_s"] / plain_res["verdict_s"]
        return tracer.derive(traced_res["raw"], {"trace.overhead_ratio": (overhead, "ratio")}), {}

    setups = setup_probes(runner, ledger, SETUP_PROBES)
    children = []
    t0 = time.perf_counter()
    while True:
        child = runner.perfbench("suites", *suites)
        res = check_suite_child(child, suites, expected, ledger)
        if res is not None:
            children.append((child, res))
            setups.append(reference_setup(res))
        if time.perf_counter() - t0 >= seconds or runner.remaining() < 1.5 * child.wall_s + 5:
            break
    if not children or not setups:
        return None
    factors = [hostspeed.factor(r["verdict_cal"]) for _, r in children]
    # a request is the whole child, spawn to exit, less the sampler's ticks
    latencies = [(c.wall_s - r["verdict_ticks_s"]) * f for (c, r), f in zip(children, factors)]
    return end_to_end(setups,
                      verdicts=[r["verdict_s"] * f for (_, r), f in zip(children, factors)],
                      rss=[c.rss_mb for c, _ in children],
                      passes=[latencies],
                      factors=factors)


def cli_pass(runner: Runner, requests, traced: bool):
    """One pass over the requests: the children, the pass's wall seconds and
    its host factor.  Untraced, a cold calibration process is timed before
    the first request and after every ``CLI_CAL_EVERY`` requests, and the
    factor is taken from their median; traced, the factor is None."""
    children = []
    cal = [] if traced else [runner.calibration()]
    t0 = time.perf_counter()
    for i, argv in enumerate(requests, 1):
        if traced:
            children.append(runner.perfbench("cli", "--trace", "--", *argv))
            continue
        children.append(runner.qhc(argv))
        if i % CLI_CAL_EVERY == 0 or i == len(requests):
            cal.append(runner.calibration())
    wall = time.perf_counter() - t0
    return children, wall, hostspeed.process_factor(cal) if cal else None


def check_cli_pass(children, checker: CliChecker, ledger: Ledger, traced: bool):
    raws = []
    for i, child in enumerate(children):
        if traced:
            res = child.result()
            if res is None:
                ledger.record(" ".join(checker.requests[i]), [f"traced child exited {child.status}"])
                continue
            status, stdout = res["status"], res["stdout"]
            raws.append(res["raw"])
        else:
            status, stdout = child.status, child.stdout
        ledger.record(" ".join(checker.requests[i]), checker.check(i, status, stdout))
    return raws


def run_cli_workload(runner: Runner, seconds: float, trace: bool, expected: dict,
                     ledger: Ledger, seed: int):
    requests = workloads.cli_requests(seed)
    checker = CliChecker(seed, requests, expected)
    if trace:
        plain, _, _ = cli_pass(runner, requests, traced=False)
        traced, _, _ = cli_pass(runner, requests, traced=True)
        check_cli_pass(plain, checker, ledger, traced=False)
        raws = check_cli_pass(traced, checker, ledger, traced=True)
        if not raws:
            return None
        overhead = sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain)
        return tracer.derive(tracer.merge_raw(raws), {"trace.overhead_ratio": (overhead, "ratio")}), {}

    setups = setup_probes(runner, ledger, SETUP_PROBES)
    passes = []
    t0 = time.perf_counter()
    while True:
        children, wall, factor = cli_pass(runner, requests, traced=False)
        passes.append((children, [c.wall_s * factor for c in children], factor))
        if time.perf_counter() - t0 >= seconds or runner.remaining() < 1.5 * wall + 5:
            break
    for children, _, _ in passes:
        check_cli_pass(children, checker, ledger, traced=False)
    if not setups:
        return None
    # a pass's verdict is its requests back to back, without the calibration between them
    return end_to_end(setups,
                      verdicts=[sum(latencies) for _, latencies, _ in passes],
                      rss=[max(c.rss_mb for c in children) for children, _, _ in passes],
                      passes=[latencies for _, latencies, _ in passes],
                      factors=[factor for _, _, factor in passes])


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git so
    nothing outside the checkout is consulted."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qhc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        **CHILD_ENV_PINS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qhc" / "__init__.py").is_file():
        print(f"error: no qhc sources under {SRC}; run from the root of a qhc checkout",
              file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(RUN_BUDGET_S)
    expected = load_expected()
    ledger = Ledger()
    trace = bool(args.trace)
    if args.workload == "cli":
        outcome = run_cli_workload(runner, args.seconds, trace, expected, ledger, args.seed)
    else:
        outcome = run_suite_workload(runner, args.workload, args.seconds, trace,
                                     expected, ledger, args.seed)
    if outcome is None:
        print("error: no child produced a result", file=sys.stderr)
        for line in ledger.failures[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1

    print("# env " + json.dumps(environment(args)))
    metrics, detail = outcome
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else repr(value)
        print(f"{args.workload} {name} {shown} {unit}")
    if detail:
        print(f"{args.workload} request_tail_s is p{detail['tail_percentile']:.1f} "
              f"over {detail['samples']} requests, median of {detail['passes']} pass(es); "
              f"setup_s is the median of {detail['setup_samples']} set-ups")
        print(f"{args.workload} times are reference seconds; median host factor "
              f"{detail['host_factor']!r} (reference seconds per wall second)")
    ratio = fail_ratio(ledger.attempted, ledger.failed)
    print(f"{args.workload} fail_ratio {ratio!r} ratio ({ledger.failed}/{ledger.attempted} operations)")
    for line in ledger.failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
