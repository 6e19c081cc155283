#!/usr/bin/env python3
"""Build and run the raysched benchmark for one workload.

    python3 perfbench/run.py --workload serve-saturated --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds the
raysched library and the driver (perfbench/CMakeLists.txt) under
.bench_build/perfbench; later calls only rebuild what changed. The driver's
stderr (checks, per-pass figures) passes through; its stdout ends with one
JSON object: {"correct", "attempted", "failed", "metrics"}. This script checks
that the object names exactly the metrics BENCHMARK.json lists for the mode
(end_to_end untraced, per_layer traced) and exits non-zero otherwise, or when
the build or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "raysched_perfbench")
WORKLOADS = ("serve-saturated", "serve-stable-rayleigh", "mc-fig1")
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("raysched sources not found next to perfbench/; run from a "
             "full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    ap.add_argument("--break-check", default="",
                    help="feed one output check a wrong expectation")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.break_check:
        cmd += ["--break-check", args.break_check]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(want.items()) - set(got.items())),
                                sorted(set(got.items()) - set(want.items()))))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
