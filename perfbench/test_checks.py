#!/usr/bin/env python3
"""Tests of the benchmark's own output checks.

    python3 perfbench/test_checks.py        (from the repository root)

Each workload runs at a tiny size (a 24 x 24 road network, one second).
Clean runs must pass and print exactly the metrics BENCHMARK.json names.
Then the checker is fed one corrupted result at a time -- an estimate below
the exact distance, one above (1+eps) times it, two wire answers swapped,
one answer frame dropped, one answer frame read one answer short -- and each
run must name the check that caught it and exit nonzero.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build_road", "serve_bulk_uniform", "serve_small_zipf")
CORRUPTIONS = {
    "below": "stretch_lower",
    "above": "stretch_upper",
    "swap": "wire_equals_oracle",
    "drop": "answered_once",
    "short": "answer_count",
}
# Queries left without a readable answer, reported in "failed".
UNANSWERED = ("drop", "short")


def run(workload, trace=0, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--side", "24"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def expect_clean(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        names = [m["name"] for m in
                 self.spec["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_clean_runs_pass(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.expect_clean(workload, trace)

    def test_each_corruption_fails_its_check(self):
        for workload in WORKLOADS:
            for corrupt, check in CORRUPTIONS.items():
                with self.subTest(workload=workload, corrupt=corrupt):
                    proc = run(workload, corrupt=corrupt)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertIn(f"CHECK FAILED [{check}]", proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertFalse(result["correct"])
                    if corrupt in UNANSWERED:
                        self.assertGreater(result["failed"], 0)
                    else:
                        self.assertEqual(result["failed"], 0)

    def test_short_frame_fails_only_the_count(self):
        # A frame answered once, but with one answer too few: answer_count
        # must catch it on its own, from the count of answers received.
        proc = run("serve_bulk_uniform", corrupt="short")
        self.assertIn("CHECK FAILED [answer_count]", proc.stderr)
        self.assertNotIn("CHECK FAILED [answered_once]", proc.stderr)


if __name__ == "__main__":
    unittest.main()
