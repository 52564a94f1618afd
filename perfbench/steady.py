#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and judge their spread.

Runs each named workload `--runs` times with seeds base, base+1, ...,
alternating the workloads (w1 s1, w2 s1, w1 s2, ...) so that a slow spell on
the host lands on all of them. For every end-to-end metric in BENCHMARK.json
it prints the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and that spread as a share of the metric's bound; with
`--sets 2` it runs the whole schedule twice and prints how far the second
median moved from the first, in the metric's worse direction, against its
bound. With `--traced` each run is followed by a traced run and the tool
prints the tracing overhead on the figures the traced run repeats.

    python3 perfbench/steady.py --workloads serve_tcp --runs 5
    python3 perfbench/steady.py --workloads solve_sweep,serve_tcp,form_write \
        --runs 10 --sets 2 --out steady.json

Run from the root of a checkout. A spread ratio below 1/3 is the target; a
ratio of 1 or more means the bound would not hold.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    # Figures printed beside the result ("(not in result)" rows of the table).
    asides = {}
    for line in lines[:-1]:
        parts = line.split()
        if "(not in result)" in line and len(parts) > 1:
            asides[parts[0]] = float(parts[1])
    return result, asides


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(workloads, runs, base_seed, seconds, traced):
    """{workload: {"results": [...], "asides": [...], "traced": [...]}} for one set."""
    out = {w: {"results": [], "asides": [], "traced": []} for w in workloads}
    for k in range(runs):
        for w in workloads:
            seed = base_seed + k
            result, asides = run_once(w, seed, seconds, 0)
            out[w]["results"].append(result)
            out[w]["asides"].append(asides)
            line = "  %-12s seed %-4d correct=%s attempted=%d failed=%d" % (
                w, seed, result["correct"], result["attempted"], result["failed"])
            if traced:
                _, asides = run_once(w, seed, seconds, 1)
                out[w]["traced"].append(asides)
                line += " (+traced)"
            print(line, flush=True)
    return out


def report(bench, workload, data, label):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results = data["results"]
    print("\n%s %s: %d runs" % (label, workload, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("  failed share per run: %s; all correct: %s" % (
        ", ".join("%.4f" % s for s in shares), all(r["correct"] for r in results)))
    print("  %-24s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3", "spread",
                                              "/bound"))
    summary = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        ratio = spread / bound if bound else float("nan")
        print("  %-24s %12.5g %12.5g %12.5g %8.3f %8.2f" % (name, q1, med, q3, spread, ratio))
        summary[name] = {"values": values, "q1": q1, "median": med, "q3": q3,
                         "spread": spread, "spread_to_bound": ratio}
    beside = {}
    for name in sorted(data["asides"][0]) if data["asides"] else []:
        values = [a[name] for a in data["asides"] if name in a]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        print("  %-24s %12.5g %12.5g %12.5g %8.3f   (beside the result)" % (
            name, q1, med, q3, spread))
        beside[name] = {"values": values, "q1": q1, "median": med, "q3": q3, "spread": spread}
    overhead = {}
    if data["traced"]:
        for name in sorted(data["traced"][0]):
            if name not in summary:
                continue
            traced = statistics.median(a[name] for a in data["traced"] if name in a)
            untraced = summary[name]["median"]
            overhead[name] = traced / untraced - 1.0
            print("  tracing changes %-20s by %+.1f%% (median traced %.5g vs %.5g)" % (
                name, 100 * overhead[name], traced, untraced))
    return summary, overhead, beside


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated: solve_sweep,serve_tcp,form_write")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--traced", action="store_true",
                        help="also run each seed traced and report the overhead")
    parser.add_argument("--out", help="write every figure to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seconds": seconds, "sets": []}
    for s in range(args.sets):
        print("set %d" % (s + 1), flush=True)
        data = run_set(workloads, args.runs, args.seed + 1000 * s, seconds, args.traced)
        record["sets"].append({w: report(bench, w, data[w], "set %d" % (s + 1))
                               for w in workloads})
    if args.sets == 2:
        print("\nsecond set against the first (worse direction, share of the first median)")
        for w in workloads:
            first, second = record["sets"][0][w][0], record["sets"][1][w][0]
            for name in sorted(first):
                a, b = first[name]["median"], second[name]["median"]
                worse = (b - a) / a if better.get(name) == "lower" else (a - b) / a
                bound = bounds.get(name, float("nan"))
                print("  %-12s %-24s %+8.3f  bound %.2f  %s" % (
                    w, name, worse, bound, "ok" if worse <= bound else "EXCEEDS"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
