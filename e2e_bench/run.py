#!/usr/bin/env python3
"""End-to-end benchmark: builds the driver, runs one workload, prints JSON.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload cached-remote --seed 1 --seconds 20 --trace 0

The driver is built from this directory's CMakeLists.txt (which compiles
../src) into $CARGO_TARGET_DIR/e2e_bench, or .bench_build/e2e_bench when
that variable is unset.  Build output and the driver's diagnostics go to
stderr; the last line of stdout is the result object.  With --trace 1 the
span dump is written to <build dir>/traces/<workload>.spans.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cached-remote", "pfs-stream", "sim-sweep")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        shutil.rmtree(bdir, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    if subprocess.call(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr) != 0:
        return None
    binary = os.path.join(bdir, "e2e_bench")
    return binary if os.access(binary, os.X_OK) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".spans")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("driver timed out after", RUN_TIMEOUT_S, "s")
        return 1
    if proc.returncode != 0:
        log("driver exited with", proc.returncode)
        return 1

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result")
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("metric set differs from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ expected))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
