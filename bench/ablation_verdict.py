#!/usr/bin/env python3
"""Judges a trajectory-changing change against a null distribution.

Each input is the stdout of one build's figure benches (bench_fig3_synthetic,
bench_fig4_pdgeqrf, bench_fig5_nimrod; several outputs may be concatenated
into one file). The parent run (--parent), the parent-equivalent null runs
(--null: the parent with only an RNG stream label renamed) and the change
(--change) are compared cell by cell, a cell being one (figure table,
algorithm) pair:

  1. take each run's final-evaluation mean from the table's last row (the
     benches print means at round-trip precision, %.17g, and the cell table
     printed here shows them the same way);
  2. rank the runs within the cell, 1 = lowest mean, ties averaged; a cell
     that any run prints as "-" (no successful evaluation) is skipped;
  3. a run's score is its sum of ranks over all cells.

The change fails only if its score is strictly higher than the score of
every parent-equivalent run (the parent and each null). Exit status: 0 on
pass, 1 on fail, 2 on unreadable or mismatched inputs.

The nulls must relabel a stream that the changed code draws from, or their
spread says nothing about the cells the change moves. For a change confined
to the multi-task models, relabel the Multitask(TS) and Multitask(PS) fit
streams, rng.split("lcm-ts") and rng.split("lcm-ps") in src/core/tla.cpp,
not "lcm-fit": in the default bench mode (fit_restarts = 0) a multi-task
refit draws nothing from "lcm-fit", so those nulls reach the multi-task
cells only through the single-task fits around them.

  $ python3 bench/ablation_verdict.py --parent P.out \\
        --null N1.out N2.out N3.out N4.out --change C.out
"""

import argparse
import sys


def parse_row(tokens):
    """Returns the means of one table row: float, or None for "-"."""
    cells = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "-":
            cells.append(None)
            i += 1
            continue
        cells.append(float(tokens[i]))
        # The std follows as "+-0.012" or, when padded, as "+-" "0.012".
        i += 3 if tokens[i + 1] == "+-" else 2
    return cells


def final_means(path):
    """Maps (table title, algorithm) to the last row's mean in `path`."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    means = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if not (line.startswith("== ") and line.endswith(" ==")):
            i += 1
            continue
        title = line[3:-3]
        header = lines[i + 1].split()
        if not header or header[0] != "eval":
            raise ValueError(f"{path}: no header under '== {title} =='")
        names = header[1:]
        last = None
        i += 2
        while i < len(lines) and lines[i].split()[:1] and \
                lines[i].split()[0].isdigit():
            last = parse_row(lines[i].split()[1:])
            i += 1
        if last is None or len(last) != len(names):
            raise ValueError(f"{path}: malformed table '{title}'")
        for name, mean in zip(names, last):
            if (title, name) in means:
                raise ValueError(f"{path}: table '{title}' appears twice")
            means[(title, name)] = mean
    if not means:
        raise ValueError(f"{path}: no figure tables found")
    return means


def average_ranks(values):
    """1-based ranks of `values`, lowest first, ties given their mean rank."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and \
                values[order[end + 1]] == values[order[start]]:
            end += 1
        for k in order[start:end + 1]:
            ranks[k] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, metavar="P")
    ap.add_argument("--null", required=True, nargs="+", metavar="N")
    ap.add_argument("--change", required=True, metavar="C")
    args = ap.parse_args()

    labels = ["P"] + [f"N{k + 1}" for k in range(len(args.null))] + ["C"]
    paths = [args.parent] + args.null + [args.change]
    try:
        runs = [final_means(p) for p in paths]
    except (OSError, ValueError, IndexError) as e:
        print(f"ablation_verdict: {e}", file=sys.stderr)
        return 2
    cells = list(runs[0])
    for label, path, run in zip(labels, paths, runs):
        if set(run) != set(cells):
            print(f"ablation_verdict: {label} ({path}) has other cells than "
                  f"P ({args.parent})", file=sys.stderr)
            return 2

    print("| cell | " + " | ".join(labels) + " | ranks " +
          " / ".join(labels) + " |")
    print("|---|" + "---|" * (len(labels) + 1))
    scores = [0.0] * len(labels)
    used = skipped = 0
    for title, name in cells:
        means = [run[(title, name)] for run in runs]
        cell = f"{title} / {name}"
        if any(m is None for m in means):
            skipped += 1
            print(f"| {cell} | " + " | ".join(
                "-" if m is None else repr(m) for m in means) +
                " | skipped |")
            continue
        ranks = average_ranks(means)
        scores = [s + r for s, r in zip(scores, ranks)]
        used += 1
        print(f"| {cell} | " + " | ".join(repr(m) for m in means) +
              " | " + " / ".join(f"{r:g}" for r in ranks) + " |")

    print()
    print(f"cells ranked: {used}, skipped: {skipped}")
    for label, score in zip(labels, scores):
        print(f"score {label}: {score:g}")
    worst_null = max(scores[:-1])
    failed = scores[-1] > worst_null
    print(f"verdict: {'FAIL' if failed else 'PASS'} (C {scores[-1]:g} "
          f"{'>' if failed else '<='} max parent-equivalent {worst_null:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
