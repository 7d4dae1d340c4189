"""Each artifact check accepts a real operation's output and rejects it perturbed.

    python3 -m pytest perfbench -q

Runs one op of each workload (about a minute in all), then edits copies of
its artifacts.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def _make(tmp_path_factory, workload: str) -> Path:
    cli = run.import_otbot()
    base = tmp_path_factory.mktemp(workload)
    plant = base / "plant.cfg"
    checks.write_plant(plant)
    out = base / "out"
    times, ok = run.run_ops(cli, [run.WORKLOADS[workload].argv(1)], plant, [out])
    assert ok == [True]
    return out


@pytest.fixture(scope="module")
def figure8(tmp_path_factory):
    return _make(tmp_path_factory, "track-figure8")


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return _make(tmp_path_factory, "identify-chain")


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path: Path, column: str, row: int, change) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(change(float(cells[i])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_report(path: Path, prefix: str, change, occurrence: int = 0) -> None:
    lines = path.read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix + " = ")]
    i = hits[occurrence]
    key, _, value = lines[i].partition(" = ")
    lines[i] = f"{key} = {change(float(value))!r}"
    path.write_text("\n".join(lines) + "\n")


def _edit_estimate(path: Path, name: str, change) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[1] == name:
            cells[3] = repr(change(float(cells[3])))
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _fails_with(messages: list[str], needle: str) -> bool:
    return any(needle in m for m in messages)


# ------------------------------------------------------------ track-figure8


def test_figure8_output_passes(figure8):
    assert checks.check_figure8(figure8) == []


@pytest.mark.parametrize(
    "fname, column, row, change, needle",
    [
        ("trajectory.csv", "dx", 5000, lambda v: v + 1e-4, "|J dq|"),
        ("trajectory.csv", "phi_r", 9000, lambda v: v + 1e-4, "holonomic residual"),
        ("torques.csv", "ucorr_r", 3000, lambda v: v + 1e-6, "u_r != utraj_r + ucorr_r"),
        ("torques.csv", "u_p", 3000, lambda v: v + 1e-9, "differs from tau_p"),
        ("errors.csv", "ep_x", 7000, lambda v: v + 1e-9, "ep_x != x - pd_x"),
        ("errors.csv", "ev_y", 7000, lambda v: v + 1e-9, "ev_y != dy - vd_y"),
        ("errors.csv", "ev_x", 13000, lambda v: v * 1.5, "x error leaves"),
        ("feasibility.csv", "nom_l", 100, lambda v: v + 1e3, "outside [lo, hi]"),
        ("feasibility.csv", "hi_r", 900, lambda v: v + 1e3, "feasibility_margin"),
    ],
)
def test_figure8_rejects_perturbed_csv(figure8, tmp_path, fname, column, row, change, needle):
    out = _copy(figure8, tmp_path)
    _edit_csv(out / fname, column, row, change)
    assert _fails_with(checks.check_figure8(out), needle)


@pytest.mark.parametrize(
    "key, change, needle",
    [
        ("kp", lambda v: v * 1.05, "error leaves"),
        ("feasibility_margin", lambda v: v + 0.01, "feasibility_margin"),
    ],
)
def test_figure8_rejects_perturbed_report(figure8, tmp_path, key, change, needle):
    out = _copy(figure8, tmp_path)
    _edit_report(out / "report.txt", key, change)
    assert _fails_with(checks.check_figure8(out), needle)


# ------------------------------------------------------------ identify-chain


def test_chain_output_passes(chain):
    assert checks.check_identify_chain(chain) == []


def test_chain_rejects_loss_not_matching_csv(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_report(out / "report.txt", "loss", lambda v: v * 1.001, occurrence=2)
    assert _fails_with(checks.check_identify_chain(out), "step3: reported loss")


def test_chain_rejects_prediction_not_matching_loss(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_csv(out / "fit_step2.csv", "predicted_accel_y", 40, lambda v: v + 0.05)
    assert _fails_with(checks.check_identify_chain(out), "step2: reported loss")


def test_chain_rejects_loss_above_truth(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_report(out / "report.txt", "loss", lambda v: v * 1.5, occurrence=1)
    assert _fails_with(checks.check_identify_chain(out), "at the true mc, Ic, xB, yB")


def test_chain_rejects_estimate_outside_band(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_estimate(out / "estimates.csv", "xF", lambda v: v + 0.05)
    assert _fails_with(checks.check_identify_chain(out), "step3: xF")


def test_chain_rejects_shaft_prediction_off_closed_form(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_csv(out / "fit_step1_wheel.csv", "predicted_rate", 20, lambda v: v + 1e-5)
    assert _fails_with(checks.check_identify_chain(out), "predicted_rate differs")


def test_chain_rejects_shaft_loss_off_closed_form(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_report(out / "report.txt", "loss", lambda v: v * 1.001, occurrence=0)
    assert _fails_with(checks.check_identify_chain(out), "closed-form loss")


def test_chain_rejects_shaft_estimate_worse_than_truth(chain, tmp_path):
    out = _copy(chain, tmp_path)
    _edit_estimate(out / "estimates.csv", "Ip0", lambda v: v * 1.05)
    messages = checks.check_identify_chain(out)
    assert _fails_with(messages, "at the truth")
    assert _fails_with(messages, "fit_step1_platform.csv: Ip0")


# ------------------------------------------------------------ traced output


def test_files_match_rejects_changed_bytes(chain, tmp_path):
    out = _copy(chain, tmp_path)
    assert checks.check_files_match(chain, out) == []
    (out / "estimates.csv").write_text((out / "estimates.csv").read_text() + "\n")
    assert _fails_with(checks.check_files_match(chain, out), "estimates.csv differs")
