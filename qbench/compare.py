"""Parent-versus-change comparison with identical benchmark code.

    python3 qbench/compare.py PARENT CHANGE --workload q2 [--pairs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]

PARENT and CHANGE are two source checkouts that hold the same qbench/ and
BENCHMARK.json (copy them into the parent first).  Pair i runs both on seed
first_seed + i, alternating which side goes first.  For each metric it
prints both sides' median and quartiles, the share of pairs the change won,
and a verdict:

    gain        the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's own quartile distance
    regression  the change's median is worse by more than the metric's bound
    unresolved  neither, and the parent's quartile distance exceeds the bound
    same        otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command, workload, seed, seconds, trace) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {checkout} seed {seed} reported correct = false", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent, change, better, bound) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change)) / len(parent)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (pm, pm, pm)
    if wins >= 0.9 and abs(cm - pm) > q3 - q1:
        return "gain", wins
    if bound is not None and sign * (cm - pm) < -bound * abs(pm):
        return "regression", wins
    if bound is not None and q3 - q1 > bound * abs(pm):
        return "unresolved", wins
    return "same", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), bench["command"], args.workload,
                                       seed, seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)

    print(f"{'metric':<34} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'won':>5}  verdict")
    for m in declared:
        p = [r[m["name"]] for r in runs["parent"]]
        c = [r[m["name"]] for r in runs["change"]]

        def fmt(v):
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            return f"{statistics.median(v):.5g} [{q[0]:.4g}, {q[2]:.4g}]"

        word, wins = verdict(p, c, m["better"], m.get("bound"))
        print(f"{m['name']:<34} {fmt(p):>34} {fmt(c):>34} {wins:>5.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
