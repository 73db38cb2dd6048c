#!/usr/bin/env python3
"""Builds and runs the pdtstore benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout. The first form builds the benchmark
(CMake, into $CARGO_TARGET_DIR or .bench_build) from the checkout's
sources, runs one workload in one process and prints its result as the
last line of standard output. --quick runs every workload at toy size,
untraced and traced, with all of its output checks, and exits non-zero
if any run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tpch_refreshed", "dense_delta_scan", "htap_refresh",
             "durable_ingest"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "database.h")):
        log("perfbench: no pdtstore sources next to the benchmark")
        return None
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                               ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json asks of a run, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(os.getcwd(), ".bench_out")]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload,
                                                          RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: unparsable result line: " + lines[-1])
        return 1, None
    # Every workload reports every metric of its kind, in its unit.
    expect = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if expect is not None and got != expect:
        log("perfbench: %s reported metrics %s, BENCHMARK.json lists %s"
            % (workload, sorted(got.items()), sorted(expect.items())))
        return 1, None
    return 0, result


def quick(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(binary, workload, 1, 1, trace, quick=True)
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] > 0)
            ok = ok and good
            log("quick %-17s trace=%d: %s" % (workload, trace,
                                              "ok" if good else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    binary = build()
    if binary is None:
        return 1
    if args.quick:
        return quick(binary)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
