#!/usr/bin/env python3
"""Run every bundled scenario through the CLI into runs/<name>/.

The identification run (the three chained steps and a two-seed sweep) takes
a few seconds; pass --quick to skip it and only produce the simulation and
tracking artifacts.
"""

import argparse
import sys
from pathlib import Path

from otbot.cli import main as otbot


def run(argv: list[str]) -> None:
    print("+ otbot " + " ".join(argv))
    code = otbot(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="output root (default runs/)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="skip the identification runs")
    args = ap.parse_args()
    root = Path(args.out)
    seed = str(args.seed)

    for name in ("wheel-spin", "platform-spin", "chassis-excitation"):
        run(["simulate", "--scenario", name, "--seed", seed, "--out", str(root / name)])

    run(["control", "--scenario", "corridor", "--out", str(root / "corridor")])
    run(["control", "--scenario", "figure8", "--out", str(root / "figure8")])
    run(["control", "--scenario", "plan", "--out", str(root / "plan-tracking")])
    run(["check-torques", "--scenario", "figure8", "--limit", "120",
         "--out", str(root / "torque-check")])

    if not args.quick:
        run(["identify", "--step", "all", "--seed", seed, "--out", str(root / "identify")])

    print(f"done; artifacts under {root}/")


if __name__ == "__main__":
    main()
