#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workloads service_mixed --seeds 1-5
    python3 perfbench/steadiness.py --seeds 101-110 --out runs.json

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds and --trace 0, then prints, for every end-to-end metric, the
median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.  The
spread is compared with a third of the metric's bound.  Exits 1 when a run
fails or is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                   out.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    raw = {}
    ok = True
    for w in workloads:
        results = []
        for seed in seeds:
            r = run_once(bench, w, seed)
            ok &= bool(r["correct"]) and r["failed"] == 0
            results.append(r)
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in r["metrics"].items())),
                flush=True)
        raw[w] = results
        print("\n%-20s %-18s %12s %8s %8s" % ("workload", "metric", "median",
                                             "spread", "bound/3"))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  WIDE"
            print("%-20s %-18s %12.6g %8.4f %8.4f%s" % (
                w, m["name"], med, spread, m["bound"] / 3, flag))
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
