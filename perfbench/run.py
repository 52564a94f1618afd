#!/usr/bin/env python3
"""Build the Parma benchmark from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve_sweep|serve_tcp|form_write \
        --seed N --seconds S --trace 0|1

The benchmark binary is built (untimed) from the checkout's own sources with the
repository's default build type into .bench_build/perfbench; a warm build is
a quick no-op. The last line of standard output is the run's JSON result.
The exit code is non-zero, with no result printed, when the build or the
run fails, or when the result line does not hold exactly the metrics that
BENCHMARK.json (at the root of the checkout) names for the run's mode.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("solve_sweep", "serve_tcp", "form_write")
# A run measures `--seconds`, plus set-up and warm-up; a run that is still
# going after this long is stuck.
RUN_LIMIT_S = 170


def build():
    """Configure (first time only) and build the benchmark; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def result_problem(line, trace):
    """Why `line` is not a result line for BENCHMARK.json, or None if it is."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result does not have exactly the keys correct, attempted, failed, metrics"
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(manifest):
        return None
    with open(manifest) as f:
        wanted = {m["name"]: m["unit"] for m in json.load(f)["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s" % (
            missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", SCRATCH]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    if proc.returncode != 0:
        # Keep the partial table for the reader, but never a result line.
        sys.stderr.write(out)
        return proc.returncode if proc.returncode > 0 else 4
    lines = out.rstrip("\n").splitlines()
    problem = result_problem(lines[-1], args.trace) if lines else "no output"
    if problem:
        sys.stderr.write(out)
        print("perfbench: %s" % problem, file=sys.stderr)
        return 5
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
