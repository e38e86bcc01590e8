#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

    python3 perfbench/test_run.py

Checks that an untraced run prints every end-to-end metric of
BENCHMARK.json and a traced run every per-layer metric, each with its
unit, and that the output checker rejects a poisoned estimate and a
recovery figure over its bound.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# bootstrap is not in BENCHMARK.json (README.md says why) but stays
# runnable, so it is tested with the others.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["bootstrap"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class Workloads(unittest.TestCase):
    def check_run(self, workload, trace, metrics):
        code, result, err = run(workload, trace)
        self.assertEqual(code, 0, err)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], err)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, SPEC["per_layer"])


class Checker(unittest.TestCase):
    def test_rejects_poisoned_estimate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = run(w, 0, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertIn("non-finite estimate", err)

    def test_rejects_recovery_over_bound(self):
        code, result, err = run("batch", 0, "--max-nrmse", "1e-6")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("recovery_nrmse_p50", err)


if __name__ == "__main__":
    unittest.main()
