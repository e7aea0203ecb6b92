#!/usr/bin/env python3
"""Tests of run.py's helpers: the percentile rule, the host
normalization, the paused timing, the CLI answer check, and the refusal to
run without the program's sources.

    python3 perfbench/test_run.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertEqual(run.highest_percentile(100), 90)
        self.assertLess(run.highest_percentile(99), 90)

    def test_highest_percentile(self):
        self.assertEqual(run.highest_percentile(1000), 99)
        self.assertEqual(run.highest_percentile(19), 47)
        self.assertEqual(run.highest_percentile(11), 9)
        self.assertIsNone(run.highest_percentile(10))

    def test_samples_beyond(self):
        for n in (11, 57, 100, 1234):
            p = run.highest_percentile(n)
            self.assertGreaterEqual(run.beyond(n, p), 10)
            if p < 99:
                self.assertLess(run.beyond(n, p + 1), 10)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 50), 50)
        self.assertEqual(run.percentile(xs, 90), 90)
        self.assertEqual(run.percentile(list(reversed(xs)), 90), 90)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        xs = list(range(1000))
        self.assertEqual(sum(1 for x in xs if x > run.percentile(xs, 90)), 100)


class Normalization(unittest.TestCase):
    def test_reference_speed_is_identity(self):
        c = run.CAL_REF_S
        self.assertAlmostEqual(run.normalized(5.0, [c, c]), 5.0)

    def test_slow_host_is_divided_out(self):
        c = run.CAL_REF_S
        self.assertAlmostEqual(run.normalized(7.5, [1.5 * c] * 3), 5.0)
        self.assertAlmostEqual(run.normalized(6.0, [c, 1.6 * c, 1.0 * c,
                                                    1.2 * c]), 5.0)


class PausedTiming(unittest.TestCase):
    def test_stopped_time_is_not_counted(self):
        class SlowKernel:
            def time(self):
                time.sleep(0.2)
                return 0.2

        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "out")
            t0 = time.perf_counter()
            secs, status, _, text, cals = run.timed_process(
                ["sh", "-c", "sleep 1.2; echo done"], out, d, SlowKernel())
            wall = time.perf_counter() - t0
        self.assertEqual(status, 0)
        self.assertEqual(text, "done\n")
        self.assertGreaterEqual(len(cals), 1)
        self.assertAlmostEqual(secs, wall - 0.2 * len(cals), delta=0.1)

    def test_exit_status_without_kernel(self):
        with tempfile.TemporaryDirectory() as d:
            secs, status, _, _, cals = run.timed_process(
                ["sh", "-c", "exit 3"], os.path.join(d, "out"), d)
        self.assertEqual((status, cals), (3, []))
        self.assertGreater(secs, 0)


REF = {"printed": ["failure frequency (rare-event approx): 6.059e-08",
                   "certified interval: [3.244e-09, 6.349e-08]",
                   "minimal cutsets: 6526 (6526 with dynamic events), engine: zdd"]}
COLD = "\n".join(REF["printed"]) + "\nMCS generation: 0.0s\n" \
    "disk cache: s — 0 entries loaded (0.1 ms), 0 disk hits / 2661 disk " \
    "misses, 2661 appended\n"
WARM = "\n".join(REF["printed"]) + "\n" \
    "disk cache: s — 2661 entries loaded (4.9 ms), 6526 disk hits / 0 disk " \
    "misses, 0 appended\n"


class CliCheck(unittest.TestCase):
    def test_accepts_reference_answer(self):
        self.assertIsNone(run.check_cli(COLD, 0, REF, warm=False))
        self.assertIsNone(run.check_cli(WARM, 0, REF, warm=True))

    def test_rejects(self):
        self.assertIsNotNone(run.check_cli(COLD, 1, REF, warm=False))
        self.assertIsNotNone(run.check_cli(COLD, 0, REF, warm=True))
        self.assertIsNotNone(
            run.check_cli(COLD.replace("6.059e-08", "6.060e-08"), 0, REF,
                          warm=False))
        self.assertIsNotNone(
            run.check_cli("DEGRADED: deadline\n" + COLD, 0, REF, warm=False))


class NoSources(unittest.TestCase):
    def test_fails_without_program(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(run.HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns(".work"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "server-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
