#!/usr/bin/env python3
"""Builds and runs the cellj2k repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload lossy_ebcot_photo --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

--self-check runs every workload briefly, in both trace modes, and checks
that each metric BENCHMARK.json names is printed with its unit, that no
operation fails, and that a run whose codestreams are deliberately
corrupted counts every operation as failed.

The library (../src) and the perfbench driver are compiled into
.bench_build/perfbench (Release) on first use; later runs rebuild only what
changed.  Build output goes to stderr, so the driver's last stdout line is
its JSON result.  Every other argument is passed to the driver unchanged;
see perfbench/README.md for workloads and metrics.
"""
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The driver must finish well inside a 180 s budget; setup plus the timed
# loop are sized far below this.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def source_stamp():
    """The commit, or a digest of the library sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def last_json(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("exit %d: %s" % (out.returncode, out.stderr[-500:]))
    return json.loads(lines[-1])


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        base = [BINARY, "--workload", w, "--seed", "7", "--seconds", "1"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            r = last_json(base + ["--trace", trace])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append("%s trace %s: metrics or units differ from "
                                "BENCHMARK.json: %s" % (
                                    w, trace, sorted(set(got.items()) ^
                                                     set(want.items()))))
            if not all(math.isfinite(v["value"])
                       for v in r["metrics"].values()):
                problems.append("%s trace %s: non-finite value" % (w, trace))
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append("%s trace %s: %d of %d operations failed" % (
                    w, trace, r["failed"], r["attempted"]))
        r = last_json(base + ["--trace", "0", "--corrupt", "1"])
        if r["correct"] or r["failed"] != r["attempted"]:
            problems.append("%s: corrupted codestreams counted %d of %d as "
                            "failed" % (w, r["failed"], r["attempted"]))
        print("self-check %s: %s" % (w, "ok" if not problems else "FAILED"),
              flush=True)
    for p in problems:
        print("self-check: " + p)
    return 1 if problems else 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--self-check"]:
        return self_check()
    cmd = [BINARY, *sys.argv[1:], "--stamp", source_stamp()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
