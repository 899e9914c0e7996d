#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, runs run.py at its tiny sizes on the default seed,
once untraced and once traced, and checks that the summary line names
every metric of BENCHMARK.json for that mode with its declared unit,
that a traced run measured every per-layer metric except those
workloads.json declares not exercised (which must read 0), that the
full record gives each measured metric its declared direction,
and that every output check passed.  Then damages the merged corpus of
each Table-I workload and checks that the run fails loudly: nonzero
exit, a CHECK FAILED line, and no correct summary.  Exits nonzero on
any failure.
"""
import json
import os
import subprocess
import sys

from run import not_exercised

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, corrupt=""):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace), "--tiny"]
    if corrupt:
        command += ["--corrupt", corrupt]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return done, summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    seed = workloads["default_seed"]
    specs = workloads["workloads"]
    failures = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            print(f"{workload} --trace {trace}")
            done, summary = run(workload, seed, trace)
            expect(done.returncode == 0 and summary is not None
                   and summary["correct"], "runs clean, every check passes")
            if summary is None:
                sys.stderr.write(done.stderr[-2000:])
                continue
            want = {m["name"]: m for m in bench[key]}
            expect(set(summary["metrics"]) == set(want),
                   f"emits exactly the {len(want)} declared metrics")
            record_path = os.path.join(
                ROOT, ".bench_build", "results",
                f"{workload}-seed{seed}-trace{trace}-tiny.json")
            with open(record_path) as f:
                measured = json.load(f)["metrics"]
            if trace:
                absent = specs[workload]["not_exercised"]
                expect(all(n in measured or
                           (not_exercised(n, absent) and
                            summary["metrics"][n]["value"] == 0)
                           for n in want),
                       "measures every per-layer metric except those "
                       "declared not exercised, which read 0")
            expect(all(summary["metrics"][n]["unit"] == m["unit"]
                       for n, m in want.items() if n in summary["metrics"]),
                   "every unit matches BENCHMARK.json")
            expect(all(measured[n]["better"] == m["better"]
                       for n, m in want.items() if n in measured),
                   "every direction matches BENCHMARK.json")

    for workload in ["table1-pipeline", "launch-table1"]:
        print(f"{workload} --corrupt corpus")
        done, summary = run(workload, seed, 0, corrupt="corpus")
        expect(done.returncode != 0, "exits nonzero")
        expect("CHECK FAILED" in done.stderr, "names the failed check")
        expect(summary is None or not summary["correct"],
               "reports no correct result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
