#!/usr/bin/env python3
"""Builds the benchmark and the program under test, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds, in
Release with the repository's own CMake, into .bench_build/; later runs only
rebuild what changed. Build output goes to stderr; the last line of stdout is
the JSON result of oracle_bench. --side and --corrupt are passed through
to it for the checker tests (perfbench/test_checks.py), and --zipf-rate for
measuring the server's capacity for small frames (README).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(BUILD, "oracle_bench")
SERVER = os.path.join(BUILD, "pathsep", "examples", "query_server")
WORKLOADS = ("build_road", "serve_bulk_uniform", "serve_small_zipf")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "oracle_bench",
                    "query_server", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--side", type=int, default=192)
    parser.add_argument("--corrupt",
                        choices=("below", "above", "swap", "drop", "short"))
    parser.add_argument("--zipf-rate", type=float)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD, "runs")
    os.makedirs(work_dir, exist_ok=True)
    argv = [BENCH, f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--trace={args.trace}",
            f"--server={SERVER}", f"--work-dir={work_dir}",
            f"--side={args.side}"]
    if args.corrupt:
        argv.append(f"--corrupt={args.corrupt}")
    if args.zipf_rate:
        argv.append(f"--zipf-rate={args.zipf_rate}")
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so a signal to the benchmark reaches oracle_bench,
    # which reaps the server it starts.
    os.execv(BENCH, argv)


if __name__ == "__main__":
    sys.exit(main())
