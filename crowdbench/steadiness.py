#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady its end-to-end metrics are.

    python3 crowdbench/steadiness.py [--runs 10]
        [--workloads tuning_session,crowd_pull] [--seconds S]

Run i uses seed i (1..runs), with tracing off. For every end-to-end metric
of every workload it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json and a third of it, the target a steady
metric should meet.
Where /proc/stat exists it also reports the share of CPU time the host's
hypervisor stole during each run: on a shared host, stolen time is what
moves the figures between runs. Exits non-zero if any run fails or reports
incorrect output.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def steal_and_total():
    """Host-wide (steal, total) CPU jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            values = [int(v) for v in f.readline().split()[1:]]
        return values[7], sum(values)
    except (OSError, IndexError, ValueError):
        return None


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n" + proc.stdout)
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        steal = []
        for i in range(args.runs):
            before = steal_and_total()
            metrics = run_once(workload, i + 1, args.seconds)
            after = steal_and_total()
            if before and after and after[1] > before[1]:
                steal.append((after[0] - before[0]) / (after[1] - before[1]))
            for name, m in metrics.items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            note = f", host steal {steal[-1]:.1%}" if len(steal) == i + 1 else ""
            print(f"# {workload} run {i + 1}/{args.runs} done{note}", file=sys.stderr)
        steal_note = (f", host steal per run {min(steal):.1%}..{max(steal):.1%}"
                      if steal else "")
        print(f"{workload} ({args.runs} runs, {args.seconds:g} s each{steal_note})")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'bound/3':>7}")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f} {bounds[name] / 3:7.3f}  {unit}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"steadiness.py: {e}", file=sys.stderr)
        sys.exit(1)
