#!/usr/bin/env python3
"""End-to-end benchmark of libmemopt.

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload affinity-hotspot --seed 1 --seconds 25 --trace 0

Builds the benchmark (e2e_bench/CMakeLists.txt, which compiles the library
from src/) into .bench_build/, runs the memopt_e2e driver, prints every
metric by name with its unit, the simulated-result guards and the host
fingerprint, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero without that line when the
build, the run, or the metric set does not check out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
BINARY = os.path.join(BUILD_DIR, "memopt_e2e")
# One run, build check included, must end well inside the driver's 180 s.
RUN_TIMEOUT_S = 170
# Compiler processes; few, so that the build stays small in memory.
BUILD_JOBS = 4


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the driver; build output goes to stderr."""
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR  # compiler temporaries stay inside the checkout
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed (are the memopt sources beside e2e_bench/?)")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "memopt_e2e", "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace-events", stem + ".trace.json"]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if rc != 0:
        fail(f"memopt_e2e exited with status {rc}")
    with open(stem + ".json") as f:
        result = json.load(f)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"driver did not report metric '{m['name']}'")
        if got["unit"] != m["unit"]:
            fail(f"metric '{m['name']}' has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {args.trace}  "
          f"seconds {result['seconds']:g}")
    print(f"host     nproc={host['nproc']} jobs={host['jobs']} build={host['build_type']} "
          f"compiler='{host['compiler']}' cpu='{host['cpu_model']}'")
    print(f"ops      attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed_frac']:g} correct={str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"metric   {name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["guards"].items():
        print(f"guard    {name:36s} {value:>16.10g}")
    if args.trace:
        print(f"spans    {stem}.trace.json")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
