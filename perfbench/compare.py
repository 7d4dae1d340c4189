"""Run the benchmark's workloads repeatedly on one checkout, or paired on two.

    python3 perfbench/compare.py CHECKOUT [CHANGE_CHECKOUT] [--runs 10] [--workload W]...

Each checkout must hold this ``perfbench/`` directory (copy it into the
checkout of an older commit, so both sides run identical benchmark code).
Run i uses ``--seed i+1`` on both sides, and pairs alternate which side runs
first. For every workload and end-to-end metric it prints each side's
median, quartiles and spread (quartile distance over median) next to the
metric's bound; with two checkouts also the change's median relative to
the parent's and the share of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} failed its checks\n{proc.stderr}")
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one checkout, or a parent and a change")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    sides = [c.resolve() for c in args.checkouts]

    for workload in workloads:
        results: list[list[dict]] = [[] for _ in sides]
        for i in range(args.runs):
            order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
            for s in order:
                results[s].append(run_once(sides[s], workload, i + 1, args.seconds))
        print(f"\n{workload}: {args.runs} runs per side")
        for s, side in enumerate(sides):
            shares = {r["failed"] / r["attempted"] for r in results[s]}
            print(f"  side {s} {side}: failed share {sorted(shares)}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            per_side = [[r["metrics"][name]["value"] for r in rs] for rs in results]
            line = f"  {name:12s} bound {metric['bound']:.2f}"
            for values in per_side:
                med, q1, q3, spread = summary(values)
                line += f" | median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}"
            if len(sides) == 2:
                base, head = per_side
                lower = metric["better"] == "lower"
                wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
                ratio = statistics.median(head) / statistics.median(base)
                line += f" | change/parent {ratio:.3f}, change won {wins}/{len(base)}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
