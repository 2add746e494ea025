#!/usr/bin/env python3
"""Host-time benchmark of the Chaos simulator.

Builds the benchmark (and the repository's chaos library) from source into
.bench_build/hostbench at the repository root when needed, runs the
checker's self-test, then runs one workload in one process and prints its
result as the last line of standard output:

  python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 hostbench/run.py --self-test

The result is one JSON object with the keys correct, attempted, failed and
metrics. Result and span files land in .bench_out/ at the repository root.
Build output and diagnostics go to standard error. Exits nonzero, printing
no result, if the build, the self-test or a check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def self_test():
    subprocess.run([os.path.join(BUILD, "hostbench_check_selftest")],
                   stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        build()
        self_test()
        if args.self_test:
            return 0
        os.makedirs(OUT, exist_ok=True)
        run = subprocess.run(
            [os.path.join(BUILD, "hostbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", OUT],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 1

    lines = run.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0 or not lines:
        print(f"hostbench: run failed with code {run.returncode}", file=sys.stderr)
        if lines:
            print(lines[-1], file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print(f"hostbench: metrics {sorted(set(got.items()) ^ set(want.items()))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
