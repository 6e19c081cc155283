#!/usr/bin/env python3
"""The benchmark's own tests: reduced-size smoke runs of every workload.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout (the first test builds through run.py).
Asserts that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit, and that each output check trips when fed a
deliberately wrong expectation (--break-check).
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("serve-saturated", "serve-stable-rayleigh", "mc-fig1")

# Checks each (workload, trace) run evaluates.
SERVE_PAIR = ["conservation", "trajectory_hash", "served", "repeatable",
              "offered_load"]
CHECKS = {
    ("serve-saturated", 0): SERVE_PAIR + ["p99_support"],
    ("serve-saturated", 1): SERVE_PAIR + [
        "replay_schedule", "trace_passive", "certified_sinr",
        "mirror_offered_load", "thread_checksum", "theorem1_conformance"],
    ("serve-stable-rayleigh", 0): SERVE_PAIR + ["p99_support"],
    ("serve-stable-rayleigh", 1): [
        "replay_schedule", "trace_passive", "mirror_offered_load"],
    ("mc-fig1", 0): ["thread_checksum", "repeatable", "theorem1_conformance",
                     "p99_support"],
    ("mc-fig1", 1): ["trace_passive", "thread_checksum",
                     "theorem1_conformance", "replay_schedule"],
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, seed=7):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def check_mode(self, trace, section):
        want = {m["name"]: m["unit"] for m in spec()[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                r = result_of(proc)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"], proc.stderr[-2000:])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in r["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        self.assertGreater(m["value"], 0.0, name)

    def test_end_to_end(self):
        self.check_mode(0, "end_to_end")

    def test_per_layer(self):
        self.check_mode(1, "per_layer")


class ChecksTrip(unittest.TestCase):
    def test_each_check_trips(self):
        for (workload, trace), names in CHECKS.items():
            for name in names:
                with self.subTest(workload=workload, trace=trace, check=name):
                    proc = run(workload, trace, "--break-check", name)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    r = result_of(proc)
                    self.assertFalse(r["correct"])
                    self.assertEqual(r["failed"], r["attempted"])
                    self.assertIn("check %s: FAILED" % name, proc.stderr)

    def test_unknown_check_is_refused(self):
        proc = run("mc-fig1", 0, "--break-check", "no_such_check")
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
