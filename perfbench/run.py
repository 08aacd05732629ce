#!/usr/bin/env python3
"""EPIM benchmark: build the benchmark binary from source, run one workload,
check its outputs and print the result line.

Usage (from the repository root):

  python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

Workloads are serve_mixed, infer_offline and design_search (see
perfbench/README.md). With --trace 0 the result carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; everything before it is a readable record of
the host, the build and every figure the run measured.

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the repository root) on first use. Build
output goes to standard error. Exit codes: 0 correct run, 1 a correctness
check failed, 2 bad arguments or no repository around the benchmark, 3 the
build failed, 4 the binary's output broke the result contract, 124 the run
timed out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "infer_offline", "design_search")
# A run must end within 180 s; leave room for set-up of this script.
RUN_LIMIT_S = 170.0


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure (once) and build `target`; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no EPIM sources next to perfbench/ (CMakeLists.txt, src/); "
            "nothing to build")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            sys.exit(3)
    return os.path.join(out, target)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_pins(workload, got):
    """Compare the run's exact simulated statistics with perfbench/pins.json.
    Returns a list of mismatch descriptions (empty when all agree)."""
    want = load_json(os.path.join(HERE, "pins.json"))[workload]
    problems = []
    for key in sorted(set(want) | set(got)):
        if key not in got:
            problems.append("pin %s missing from the run" % key)
        elif key not in want:
            problems.append("pin %s=%s is not recorded in pins.json"
                            % (key, got[key]))
        elif str(want[key]) != got[key]:
            problems.append("pin %s: expected %s, got %s"
                            % (key, want[key], got[key]))
    return problems


def run_workload(args):
    start = time.monotonic()
    binary = build("perfbench")
    workdir = os.path.join(build_dir(), "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    limit = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("the run exceeded %.0f s and was stopped" % limit)
        return 124
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        log("benchmark binary exited with code %d" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark binary did not end with a result line")
        return 4

    want = expected_metrics(args.trace)
    metrics = result["metrics"]
    if set(metrics) != set(want):
        log("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(metrics)),
               sorted(set(metrics) - set(want))))
        return 4
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            log("metric %s has unit %s, BENCHMARK.json says %s"
                % (name, metrics[name]["unit"], unit))
            return 4

    problems = list(result.get("errors", []))
    problems += check_pins(args.workload, result.get("pins", {}))
    correct = bool(result["correct"]) and not problems
    for p in problems:
        log("CHECK FAILED: " + p)

    print("\n".join(lines[:-1]))
    print("# pins: %s" % json.dumps(result.get("pins", {}), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in sorted(metrics)},
    }), flush=True)
    return 0 if correct else 1


def self_test():
    binary = build("perfbench_tests")
    rc = subprocess.run([binary]).returncode
    rc |= subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 1 if rc else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must lie in [1, 120]")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
