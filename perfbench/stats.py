#!/usr/bin/env python3
"""Spread and comparison of benchmark result records.

    python3 perfbench/stats.py spread [DIR]
    python3 perfbench/stats.py compare BASE_DIR NEW_DIR

Reads the result records run.py writes (default DIR:
.bench_build/results).  `spread` prints, per workload and end-to-end
metric, the median over runs and the distance between the first and
third quartiles as a share of the median, against the metric's bound in
BENCHMARK.json.  `compare` prints each metric's median change from
BASE_DIR to NEW_DIR as a share of the base median, and flags changes
worse than the bound.  It refuses to compare records whose environment
(build type, native-arch flag, compiler, CPU, SIMD tier, nproc,
threads) differ.  Both exit nonzero when a bound is broken.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def load(directory):
    """{workload: [record, ...]} of the untraced, full-size records."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def environments(*record_lists):
    return {json.dumps(r["environment"], sort_keys=True)
            for records in record_lists for r in records}


def values(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def spread(directory):
    ok = True
    for workload, records in sorted(load(directory).items()):
        print(f"{workload} ({len(records)} runs)")
        for metric in declared():
            v = values(records, metric["name"])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            share = (q3 - q1) / abs(med) if med else float("inf")
            verdict = "ok" if share <= metric["bound"] else "WIDE"
            ok = ok and verdict == "ok"
            print(f"  {metric['name']:<18} median {med:<12.6g} "
                  f"spread {share:6.3f}  bound {metric['bound']:.3f}  "
                  f"{verdict}")
    return 0 if ok else 1


def compare(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    ok = True
    for workload in sorted(set(base) & set(new)):
        envs = environments(base[workload], new[workload])
        if len(envs) != 1:
            print(f"refusing to compare {workload}: the environment records "
                  "differ", file=sys.stderr)
            for env in sorted(envs):
                print(f"  {env}", file=sys.stderr)
            return 2
        print(workload)
        for metric in declared():
            b = values(base[workload], metric["name"])
            n = values(new[workload], metric["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / abs(mb) if mb else 0.0
            worse = -change if metric["better"] == "higher" else change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            ok = ok and verdict == "ok"
            print(f"  {metric['name']:<18} {mb:<12.6g} -> {mn:<12.6g} "
                  f"{change:+7.3f}  bound {metric['bound']:.3f}  {verdict}")
    return 0 if ok else 1


def main(argv):
    default = os.path.join(ROOT, ".bench_build", "results")
    if len(argv) >= 1 and argv[0] == "spread" and len(argv) <= 2:
        return spread(argv[1] if len(argv) == 2 else default)
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
