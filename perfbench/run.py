#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library, the worker CLIs and
the perfbench binary from source into .bench_build/ (Release), runs the
workload with its pinned config from perfbench/workloads.json, writes
the full result record (environment, checks, metrics, spans) to
.bench_build/results/, and prints one JSON summary as the last line of
stdout: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  Exits nonzero when the build fails or
any output check fails.

Self-test options: --tiny runs the workload at its tiny sizes, and
--corrupt ARTIFACT damages one artifact so the checks must fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
TARGETS = ["perfbench", "generate_corpus", "run_table1"]


def build():
    """Configures once, then brings the three targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no qaoaml sources next to perfbench/")
    build_dir = os.path.join(ROOT, BUILD)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                   + TARGETS, check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def workload_spec(name, tiny):
    """(default seed, pinned config, per-layer metrics not exercised)."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    workload = spec["workloads"][name]
    config = dict(spec["common"])
    config.update(workload["config"])
    if tiny:
        config.update(workload["tiny"])
    return spec["default_seed"], config, workload["not_exercised"]


def not_exercised(name, patterns):
    """An entry ending in '.' or '_' names a prefix, any other one a metric."""
    return any(name == p or (p[-1] in "._" and name.startswith(p))
               for p in patterns)


def summarize(result, trace, absent):
    """The contract line: declared metrics with their units, validated.

    A per-layer metric the workload is declared not to exercise reads 0
    (no work happened there); any other missing metric, or a declared-
    absent one that was measured after all, is a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    failed = result["failed"]
    metrics = {}
    for spec in declared:
        name = spec["name"]
        got = measured.get(name)
        skipped = trace and not_exercised(name, absent)
        if skipped and got is not None:
            print(f"run.py: {name} measured but listed as not exercised",
                  file=sys.stderr)
            failed += 1
        if got is None:
            if not skipped:
                print(f"run.py: metric {name} missing", file=sys.stderr)
                failed += 1
                continue
            got = {"value": 0.0, "unit": spec["unit"], "better": spec["better"]}
            print(f"  {name:<36} {'n/a':>16} (layer not exercised)")
        if got["unit"] != spec["unit"] or got["better"] != spec["better"]:
            print(f"run.py: {name} reported as {got['unit']}/{got['better']}, "
                  f"declared {spec['unit']}/{spec['better']}", file=sys.stderr)
            failed += 1
        metrics[name] = {"value": got["value"], "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": max(1, result["attempted"]),
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", default="")
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")
    default_seed, config, absent = workload_spec(args.workload, args.tiny)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-seed{args.seed}"
                       f"-trace{args.trace}{'-tiny' if args.tiny else ''}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work", args.workload),
               "--out", out, "--default-seed", str(default_seed)]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    for key, value in sorted(config.items()):
        command += ["--set", f"{key}={value}"]
    sys.stdout.flush()
    try:
        status = subprocess.run(command, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: workload exceeded 170 s")
    if not os.path.isfile(out):
        sys.exit(f"run.py: perfbench exited {status} without a result")
    with open(out) as f:
        summary = summarize(json.load(f), args.trace == 1, absent)
    print(json.dumps(summary))
    return 0 if summary["correct"] and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
