"""Self-tests of the benchmark's own logic; they start no qhc work.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _raw_zero() -> dict:
    keys = ("mul_calls", "add_calls", "gcd_calls", "gcd_trivial", "gcd_s", "eval_calls", "eval_s",
            "nf_word_calls", "redex_lookups", "steps", "distinct_words", "cache_gets", "cache_hits",
            "nf_cache_entries", "frac_rank_nnz")
    return {**{k: 0 for k in keys}, "spans": {}, "absent_spans": []}


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_grammar(self):
        names = []
        for group in ("end_to_end", "per_layer", "workloads"):
            for m in self.bench[group]:
                self.assertRegex(m["name"], NAME)
                names.append(m["name"])
                if "unit" in m:
                    self.assertRegex(m["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_per_layer_matches_tracer(self):
        derived = tracer.derive(_raw_zero(), {"trace.overhead_ratio": (1.0, "ratio")})
        listed = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(listed, {k: unit for k, (_, unit) in derived.items()})

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_overlapping_children(self):
        # root [0, 10] with children [1, 4] and [3, 6] overlapping, and
        # [8, 12] sticking out past the root's end; grandchild [2, 3].
        names = ["root", "a", "b", "c", "g"]
        starts = [0.0, 1.0, 3.0, 8.0, 2.0]
        ends = [10.0, 4.0, 6.0, 12.0, 3.0]
        parents = [-1, 0, 0, 0, 1]
        table = tracer.self_times(names, starts, ends, parents)
        # children cover [1, 6] and [8, 10] of the root: 7 seconds
        self.assertAlmostEqual(table["root"][1], 3.0)
        self.assertAlmostEqual(table["a"][1], 2.0)
        self.assertAlmostEqual(table["b"][1], 3.0)
        self.assertAlmostEqual(table["c"][1], 4.0)
        self.assertAlmostEqual(table["g"][1], 1.0)
        self.assertEqual([table[n][0] for n in names], [1, 1, 1, 1, 1])

    def test_same_name_sums(self):
        table = tracer.self_times(["f", "f", "f"], [0.0, 1.0, 5.0], [4.0, 2.0, 6.0], [-1, 0, -1])
        self.assertEqual(table["f"][0], 3)
        self.assertAlmostEqual(table["f"][1], 3.0 + 1.0 + 1.0)

    def test_tracer_spans(self):
        tr = tracer.Tracer()

        def inner():
            return 1

        outer = tr.span("outer", lambda: tr.span("inner", inner)() + 1)
        self.assertEqual(outer(), 2)
        table = tr.span_table()
        self.assertEqual(table["outer"][0], 1)
        self.assertEqual(table["inner"][0], 1)
        self.assertEqual(list(tr.span_parent), [-1, 0])


class FailRatio(unittest.TestCase):
    def test_ledger_counts(self):
        ledger = run.Ledger()
        ledger.record("a", [])
        ledger.record("b", ["wrong"])
        ledger.record("c", ["wrong", "also wrong"])
        self.assertEqual((ledger.attempted, ledger.failed), (3, 2))
        self.assertAlmostEqual(run.fail_ratio(ledger.attempted, ledger.failed), 2 / 3)

    def test_fail_ratio_guards(self):
        self.assertEqual(run.fail_ratio(9, 0), 0.0)
        with self.assertRaises(ValueError):
            run.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            run.fail_ratio(3, 4)

    def test_crashed_child_fails_every_pinned_item(self):
        expected = {"suites": {"s": [["x", True], ["y", True]]}}
        ledger = run.Ledger()
        run.check_suite_child(run.Child(1, "", "boom", 0.1, 1.0), ("s",), expected, ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (2, 2))

    def test_item_mismatch_and_extra(self):
        expected = {"suites": {"s": [["x", True], ["y", True]]}}
        out = json.dumps({"items": {"s": [["x", True], ["y", False], ["z", True]]}})
        ledger = run.Ledger()
        run.check_suite_child(run.Child(0, out, "", 0.1, 1.0), ("s",), expected, ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (3, 2))

    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        value, pct, n = run.tail([float(i) for i in range(1, 41)])
        self.assertEqual((value, pct, n), (30.0, 75.0, 40))


class HostFactor(unittest.TestCase):
    def test_factor_scales_to_reference(self):
        ref = hostspeed.REFERENCE_S
        self.assertAlmostEqual(hostspeed.factor([ref, ref]), 1.0)
        # a host running the loop half as fast halves every reported time
        self.assertAlmostEqual(hostspeed.factor([2 * ref, 2 * ref]), 0.5)
        self.assertAlmostEqual(hostspeed.factor([ref, 3 * ref]), 0.5)
        with self.assertRaises(ValueError):
            hostspeed.factor([])

    def test_process_factor_takes_the_median(self):
        ref = hostspeed.REFERENCE_PROCESS_S
        self.assertAlmostEqual(hostspeed.process_factor([ref, 2 * ref, 10 * ref]), 0.5)
        with self.assertRaises(ValueError):
            hostspeed.process_factor([])

    def test_sampler_ticks_and_restores_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.Sampler(period=0.02) as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.15:
                pass
        self.assertGreaterEqual(len(sampler.samples), 4)
        self.assertGreater(sampler.ticks_s, 0.0)
        self.assertLess(sampler.ticks_s, sum(sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Requests(unittest.TestCase):
    def test_seeded_and_deterministic(self):
        self.assertEqual(workloads.cli_requests(7), workloads.cli_requests(7))
        self.assertNotEqual(workloads.cli_requests(7), workloads.cli_requests(8))

    def test_same_mix_for_every_seed(self):
        def kinds(seed):
            return [(r[0], r[2] if len(r) > 2 else None) for r in workloads.cli_requests(seed)]

        self.assertEqual(kinds(0), kinds(12345))


if __name__ == "__main__":
    unittest.main()
