#!/usr/bin/env python3
"""Builds the crowd-tuning benchmark from this checkout and runs one workload.

    python3 crowdbench/run.py --workload tuning_session|crowd_pull \
        --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to $CARGO_TARGET_DIR/crowdbench, default
.bench_build/crowdbench under the checkout root (a relative
$CARGO_TARGET_DIR is taken from the checkout root too); stores and span
dumps go under the same directory, so the run stays inside the checkout
unless $CARGO_TARGET_DIR points elsewhere. Metric names and units are read
from BENCHMARK.json. crowd_pull runs pinned to one CPU, the
highest-numbered one this process may use: on a shared host, requests
handed between vCPUs wait for the idle one to wake, and work spread over
several vCPUs pays for each one the hypervisor deschedules. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tuning_session", "crowd_pull")
PINNED = ("crowd_pull",)  # run on one CPU; see crowdbench/README.md
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build_root():
    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return out if out.is_absolute() else ROOT / out


def configured_for(build_dir):
    """The source directory an existing CMake cache was configured for."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return line.split("=", 1)[1]
    return None


def build(build_dir):
    if configured_for(build_dir) != str(HERE):
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)
    return build_dir / "crowd_bench"


def pin_to_one_cpu():
    """Restricts this process, and so the benchmark it starts, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_root() / "crowdbench"
    try:
        binary = build(out / "build")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.workload in PINNED:
        pin_to_one_cpu()
    work = out / f"run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work), "--spec", str(ROOT / "BENCHMARK.json"),
           "--trace-out", str(out / "traces" / f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
