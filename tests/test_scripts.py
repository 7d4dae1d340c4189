"""Smoke runs of the scripts in ``scripts/``, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import otbot

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    """``scripts/<name>`` run with ``args``, importing the package under test."""
    src = str(Path(otbot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_quick_experiments_then_transient_summary(tmp_path):
    runs = tmp_path / "runs"
    proc = _script("run_all_experiments.py", "--quick", "--out", str(runs), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # each run the script names ("+ otbot ... --out DIR") left its directory
    named = [line.rpartition("--out ")[2] for line in proc.stdout.splitlines() if line.startswith("+ otbot ")]
    expected = ("wheel-spin", "platform-spin", "chassis-excitation", "corridor", "figure8",
                "plan-tracking", "torque-check")
    assert named == [str(runs / name) for name in expected]
    assert sorted(p.name for p in runs.iterdir()) == sorted(expected)
    assert all((runs / name / "manifest.json").is_file() for name in expected)

    proc = _script("transient_summary.py", str(runs / "corridor"), "--onsets", "0,5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[0] == "onset"
    assert [float(row.split()[0]) for row in rows] == [0.0, 5.0]


def test_count_lines_prints_the_tracked_sizes(tmp_path):
    proc = _script("count_lines.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    modules = {line.split()[0]: int(line.split()[1]) for line in lines if line.startswith("  ")}
    package = Path(otbot.__file__).parent
    generated = ("_task_space", "_task_sensitivity")
    assert sorted(modules) == sorted(p.stem for p in package.glob("*.py") if p.stem not in generated)
    assert head == f"src/otbot hand-written Python, without the generated modules: {sum(modules.values())}"
    others = [line.partition(":")[0] for line in lines if not line.startswith("  ")]
    assert others == ["scripts/gen_task_space.py", "scripts/gen_task_space.py _LOOP (hand-written C)",
                      "src/otbot/_task_space.py (generated Python)",
                      "src/otbot/_task_sensitivity.py (generated Python)",
                      "src/otbot/_csv_format.c (hand-written C)", "src/otbot/_dp5_robot.c (generated C)"]


def test_csv_cost_prints_each_table_of_a_short_figure8_lap(tmp_path):
    proc = _script("csv_cost.py", "--horizon", "0.5", "--repeat", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    formatter, header, *rows, total = proc.stdout.splitlines()
    assert formatter in ("formatter: c", "formatter: python")
    assert header.split() == ["table", "rows", "cols", "ns/cell", "peak", "MB"]
    shapes = {row.split()[0]: tuple(int(v) for v in row.split()[1:3]) for row in rows}
    assert shapes == {"trajectory.csv": (501, 16), "errors.csv": (501, 7), "reference.csv": (501, 10),
                      "torques.csv": (501, 10), "feasibility.csv": (51, 10)}
    assert all(float(v) > 0 for row in rows for v in row.split()[3:])
    assert total.split()[0] == "all" and total.endswith(" ms")
