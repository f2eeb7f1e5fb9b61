#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes the spread.

    python3 tgbench/baseline.py [--seeds 10]
        [--workloads serve_read,serve_mixed,audit_leaky] [--out FILE]

For each workload: runs `tgbench/run.py --trace 0` once per seed (1..N,
run_seconds from BENCHMARK.json), then one traced run with seed 1.
Prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
whether the spread is within the metric's bound and within a third of it;
the traced run's per-layer values are recorded as they are.  Writes
everything to --out as JSON (default: no file).  Exits non-zero
when any run fails or reports correct=false.  Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d trace %d: exit %d" % (workload, seed, trace,
                                                              proc.returncode))
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"nproc": os.cpu_count(), "run_seconds": seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    ok = True
    for workload in workloads:
        e2e, contexts, layers = {}, [], {}
        for seed in range(1, args.seeds + 1):
            context, result = run_once(workload, seed, seconds, 0)
            contexts.append(context)
            ok = ok and result["correct"] and result["failed"] == 0
            print("%s seed %d correct=%s failed=%d/%d %s" % (
                workload, seed, result["correct"], result["failed"], result["attempted"],
                " ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
            for name, metric in result["metrics"].items():
                e2e.setdefault(name, []).append(metric["value"])
        context, result = run_once(workload, 1, seconds, 1)
        contexts.append(context)
        ok = ok and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            layers.setdefault(name, []).append(metric["value"])
        entry = {"end_to_end": {}, "per_layer": {}, "contexts": contexts}
        for name, values in e2e.items():
            s = summarize(values) if len(values) >= 2 else {"median": values[0], "values": values}
            s["bound"] = bounds[name]
            s["within_bound"] = s.get("spread", 0.0) <= bounds[name]
            s["within_third"] = s.get("spread", 0.0) <= bounds[name] / 3
            entry["end_to_end"][name] = s
            print("  %-12s %-12s median=%-10.5g q1=%-10.5g q3=%-10.5g spread=%.3f bound=%.2f%s" % (
                workload, name, s["median"], s.get("q1", 0), s.get("q3", 0),
                s.get("spread", 0), bounds[name],
                "" if s["within_third"] else ("  (> bound/3)" if s["within_bound"]
                                              else "  (> bound)")), flush=True)
        for name, values in layers.items():
            entry["per_layer"][name] = {"median": values[0], "values": values}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if not ok:
        print("some run failed its correctness checks", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
