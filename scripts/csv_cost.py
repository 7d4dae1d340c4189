#!/usr/bin/env python3
"""Print what writing the figure-8 run's CSV tables costs, table by table.

Runs ``otbot control --scenario figure8`` once, keeping the columns of each
table it writes, then writes each table again, whole, with ``simulate.write_csv``:
the best of ``--repeat`` writes in nanoseconds per cell, and the peak of the
memory that ``tracemalloc`` traces (numpy's buffers included) in one write.
The formatter is the compiled one where it builds, else Python's ``repr``.

    python scripts/csv_cost.py                  # the 18 s lap
    python scripts/csv_cost.py --horizon 0.5    # a short lap, for a smoke run
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from otbot import _ckernel, cli, simulate


def capture_tables(out: Path, horizon: float | None) -> list[tuple]:
    """The (name, header, columns, line_end) of each table of a figure-8 run into ``out``,
    the columns of a table written a block at a time joined whole."""
    tables = []
    write_tables = simulate.write_tables

    def keep(specs, blocks):
        blocks = list(blocks)
        for k, (path, header, line_end) in enumerate(specs):
            columns = [np.concatenate(parts) for parts in zip(*(block[k] for block in blocks))]
            tables.append((Path(path).name, header, columns, line_end))
        write_tables(specs, blocks)

    scenario = "figure8"
    if horizon is not None:  # the bundled scenario with its horizon changed
        bundled = Path(simulate.__file__).with_name("scenarios")
        scenario = str(out / "figure8.cfg")
        Path(scenario).write_text((bundled / "figure8.cfg").read_text().replace(
            "horizon = 18", f"horizon = {horizon!r}"))
        shutil.copy(bundled / "nominal.cfg", out)
    cli.write_tables = simulate.write_tables = keep
    try:
        code = cli.main(["control", "--scenario", scenario, "--out", str(out / "run")])
    finally:
        cli.write_tables = simulate.write_tables = write_tables
    if code:
        raise SystemExit(code)
    return tables


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--horizon", type=float, default=None, help="lap length in s (default: the scenario's 18)")
    ap.add_argument("--repeat", type=int, default=5, help="writes timed per table (default: 5)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="csv-cost-") as tmp:
        tables = capture_tables(Path(tmp), args.horizon)
        formatter = "python" if _ckernel.load_formatter() is None else "c"
        print(f"formatter: {formatter}")
        print(f"{'table':<16} {'rows':>7} {'cols':>5} {'ns/cell':>8} {'peak MB':>8}")
        cells = seconds = 0.0
        for name, header, columns, line_end in tables:
            path = Path(tmp) / name
            rows, cols = len(columns[0]), sum(np.asarray(c).reshape(len(c), -1).shape[1] for c in columns)
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                simulate.write_csv(path, header, columns, line_end)
                best = min(best, time.perf_counter() - t0)
            tracemalloc.start()
            simulate.write_csv(path, header, columns, line_end)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            cells += rows * cols
            seconds += best
            print(f"{name:<16} {rows:>7} {cols:>5} {best / (rows * cols) * 1e9:>8.1f} {peak / 1e6:>8.3f}")
        print(f"{'all':<16} {'':>7} {'':>5} {seconds / cells * 1e9:>8.1f} {'':>8}   {seconds * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
