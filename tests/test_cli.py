"""End-to-end checks of the command-line front end and its artifacts."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otbot
from conftest import save_params
from otbot import __version__, _ckernel, cli
from otbot.cli import main
from otbot.identify import FIT_TOLERANCE
from otbot.integrator import IntegrationError
from otbot.params import nominal_params
from otbot.simulate import TRAJECTORY_COLUMNS, SimTrajectory, trajectory_from_csv, trajectory_to_csv

MANIFEST_KEYS = {
    "tool",
    "command",
    "config_sha256",
    "seeds",
    "fits",
    "integrator",
    "csv",
    "wall_clock_s",
    "files",
}


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def declared_console_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"].get("scripts", {})


class TestScenarioListing:
    def test_lists_every_bundled_scenario(self, capsys):
        assert main(["scenarios"]) == 0
        text = capsys.readouterr().out
        for name in (
            "corridor",
            "figure8",
            "plan-tracking",
            "wheel-spin",
            "platform-spin",
            "chassis-excitation",
        ):
            assert name in text

    def test_export_copies_the_files(self, tmp_path, capsys):
        target = tmp_path / "cfgs"
        assert main(["scenarios", "--export", str(target)]) == 0
        names = {p.name for p in target.glob("*.cfg")}
        # six scenarios plus the nominal parameter file they refer to
        assert len(names) == 7
        assert "nominal.cfg" in names
        assert "corridor.cfg" in names

    @pytest.mark.parametrize("onto", ["the-bundled-folder", "a-link-to-a-bundled-file"])
    def test_export_onto_a_bundled_file_is_refused_before_any_copy(self, tmp_path, capsys, onto):
        bundled = Path(otbot.__file__).with_name("scenarios")
        if onto == "the-bundled-folder":
            target = bundled / ".." / "scenarios"
        else:
            target = tmp_path / "cfgs"
            target.mkdir()
            (target / "wheel-spin.cfg").symlink_to(bundled / "wheel-spin.cfg")
        before = {p: p.read_bytes() for folder in (bundled, target) for p in folder.iterdir()}
        assert main(["scenarios", "--export", str(target)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --export {target}: a bundled scenario file would be copied onto itself\n")
        assert {p: p.read_bytes() for folder in (bundled, target) for p in folder.iterdir()} == before


class TestSimulate:
    def test_shaft_scenario_writes_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", "wheel-spin", "--out", str(out)]) == 0
        m = manifest(out)
        # with the generator of the encoder's noise
        assert set(m.keys()) == MANIFEST_KEYS | {"noise"}
        assert m["tool"] == f"otbot {__version__}"
        assert m["command"] == "simulate"
        assert m["files"] == sorted(m["files"])
        assert set(m["files"]) == {"shaft.csv", "encoder.csv"}
        # the manifest lists exactly what sits next to it
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(m["files"]) == on_disk
        assert all(len(h) == 64 for h in m["config_sha256"].values())
        assert isinstance(m["wall_clock_s"], float)
        assert {"rtol", "atol", "kernel"} == set(m["integrator"])
        # shafts run on the compiled loop too, where it can be loaded
        assert m["integrator"]["kernel"] == ("python" if _ckernel.load() is None else "c")

    def test_robot_scenario_records_trajectory_and_imu(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", "chassis-excitation", "--out", str(out)]) == 0
        m = manifest(out)
        assert set(m["files"]) == {"trajectory.csv", "imu.csv"}
        # the scenario file pins its own noise seed
        assert m["seeds"] == {"scenario": 1}
        header = (out / "imu.csv").read_text().splitlines()[0]
        assert header == "time,accel_x,accel_y,angular_rate"
        traj = trajectory_from_csv(out / "trajectory.csv")
        assert traj.times[-1] == 3.0

    def test_explicit_torques_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["simulate", "--torques", "6,-10,6", "--duration", "0.5",
             "--rate", "100", "--out", str(out)]
        )
        assert code == 0
        traj = trajectory_from_csv(out / "trajectory.csv")
        assert len(traj.times) == 51
        assert traj.times[-1] == 0.5
        assert np.all(np.isfinite(traj.states))

    def test_same_seed_reproduces_noise_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", "wheel-spin", "--seed", "3", "--out", str(a)])
        main(["simulate", "--scenario", "wheel-spin", "--seed", "3", "--out", str(b)])
        assert (a / "encoder.csv").read_bytes() == (b / "encoder.csv").read_bytes()
        assert (a / "shaft.csv").read_bytes() == (b / "shaft.csv").read_bytes()

    def test_needs_scenario_or_torques(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 2
        assert "either --scenario or both --torques and --duration" in capsys.readouterr().err

    def test_rejects_wrong_torque_count(self, tmp_path, capsys):
        code = main(
            ["simulate", "--torques", "6,-10", "--duration", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "--torques needs 3 values" in capsys.readouterr().err

    def test_unknown_scenario_names_the_alternatives(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "spiral", "--out", str(tmp_path / "x")]) == 2
        assert "wheel-spin" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_params_file_names_the_path(self, tmp_path, capsys):
        code = main(
            ["simulate", "--scenario", "wheel-spin",
             "--params", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nonphysical_params_file_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "heavy.cfg"
        save_params(nominal_params(), bad)
        bad.write_text(bad.read_text().replace("mc = 109.14", "mc = -5.0"))
        code = main(
            ["simulate", "--scenario", "wheel-spin", "--params", str(bad),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}: mc must be positive, got -5.0" in err
        assert not (tmp_path / "x").exists()

    def test_controller_scenario_is_redirected(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "corridor", "--out", str(tmp_path / "x")]) == 2
        assert "use the control subcommand" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_exits_one(self, tmp_path, capsys):
        code = main(
            ["simulate", "--torques", "1e300,0,0", "--duration", "0.1", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestIdentify:
    def test_single_step_run(self, tmp_path):
        out = tmp_path / "id"
        assert main(["identify", "--step", "1", "--seed", "0", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "[step1]" in report
        assert "converged = True" in report
        rows = (out / "estimates.csv").read_text().splitlines()
        assert rows[0] == "step,name,guess,estimate,true,abs_error"
        assert [r.split(",")[1] for r in rows[1:]] == ["Ia", "bw", "Ip0", "bp"]
        m = manifest(out)
        assert set(m["files"]) == {
            "report.txt", "estimates.csv", "fit_step1_wheel.csv", "fit_step1_platform.csv"
        }
        # the records ran at the default tolerance, every fit rollout at FIT_TOLERANCE
        assert (m["integrator"]["rtol"], m["integrator"]["atol"]) == (1e-9, 1e-12)
        assert m["integrator"]["fit"] == {"rtol": FIT_TOLERANCE.rtol, "atol": FIT_TOLERANCE.atol}
        assert (FIT_TOLERANCE.rtol, FIT_TOLERANCE.atol) == (1e-8, 1e-11)
        # the fit CSVs pair each measured channel with its prediction
        header = (out / "fit_step1_wheel.csv").read_text().splitlines()[0]
        assert header == "time,measured_rate,predicted_rate"

    def test_the_manifest_records_each_fits_stop_rule_and_counts(self, tmp_path):
        out = tmp_path / "id"
        assert main(["identify", "--step", "all", "--sweep", "0", "--seed", "0", "--out", str(out)]) == 0
        fits = manifest(out)["fits"]
        assert list(fits) == ["step1_wheel", "step1_platform", "step2", "step3"]
        for record in fits.values():
            assert set(record) == {"stop", "jacobians", "residual_evals"}
            assert record["stop"].split(":")[0] in {"ftol", "xtol", "gtol"}
            assert 1 <= record["jacobians"] <= record["residual_evals"]
        # the report's iterations of a step are its fits' Jacobians
        report = (out / "report.txt").read_text()
        assert f"iterations = {fits['step2']['jacobians']}\n" in report
        # a run without fits records none
        assert main(["simulate", "--scenario", "wheel-spin", "--out", str(tmp_path / "sim")]) == 0
        assert manifest(tmp_path / "sim")["fits"] == {}

    def test_a_far_guess_ends_on_the_mass_bound_at_the_loss_of_scipys_fit(self, tmp_path):
        # the chassis guess on the corners of its centre-of-mass box drives mc
        # onto its upper bound; scipy's trust region ended there at this loss
        guess = tmp_path / "guess.cfg"
        guess.write_text("xB = 1.0\nyB = -1.0\n")
        out = tmp_path / "id"
        assert main(["identify", "--step", "2", "--guess", str(guess), "--out", str(out)]) == 0
        report = dict(line.split(" = ") for line in (out / "report.txt").read_text().splitlines() if " = " in line)
        assert float(report["loss"]) == pytest.approx(133.80461198729543, rel=1e-9)
        assert (out / "estimates.csv").read_text().splitlines()[1].split(",")[:4] == ["step2", "mc", "54.57", "10000.0"]
        # it converges, in more evaluations than scipy's 34 (ROADMAP direction 2, left open)
        assert manifest(out)["fits"]["step2"]["stop"].startswith("ftol")

    def test_guess_file_must_parse(self, tmp_path, capsys):
        bad = tmp_path / "guess.cfg"
        bad.write_text("Ia 0.02\n")
        assert main(["identify", "--guess", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_guess_values_must_be_numbers(self, tmp_path, capsys):
        bad = tmp_path / "guess.cfg"
        bad.write_text("Ia = plenty\n")
        assert main(["identify", "--guess", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, body, message",
        [
            ("identify", "--guess", "Ia = 0.02\nIa = 0.03\n", "keys.cfg:2: duplicate key 'Ia'"),
            ("identify", "--guess", "Ia = 0.02\nmcc = 5\n", "keys.cfg:2: unknown key 'mcc'"),
            ("control", "--gains", "t_stab = 2\nkp = 9\n", "keys.cfg:2: unknown key 'kp'"),
            ("control", "--gains", "t_stab = 2\nt_stab = 3\n", "keys.cfg:2: duplicate key 't_stab'"),
        ],
        ids=["guess-duplicate", "guess-unknown", "gains-unknown", "gains-duplicate"],
    )
    def test_key_files_reject_duplicate_and_unknown_keys(
        self, tmp_path, capsys, command, flag, body, message
    ):
        bad = tmp_path / "keys.cfg"
        bad.write_text(body)
        out = tmp_path / "x"
        argv = [command, flag, str(bad), "--out", str(out)]
        if command == "control":
            argv += ["--scenario", "corridor"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("Ia = -1\n", "guess.cfg:1: Ia must lie within the fit bounds [1e-06, 10000.0], got '-1'"),
            ("bw = 0.1\nxB = 2\n", "guess.cfg:2: xB must lie within the fit bounds [-1.0, 1.0]"),
            ("deviation = 3\n", "guess.cfg:1: deviation must keep the step-3 guess within "
                                 "the fit bounds [-1.0, 1.0] (xF = 1.35)"),
        ],
        ids=["Ia", "xB", "deviation"],
    )
    def test_guess_outside_the_fit_bounds_exits_two(self, tmp_path, capsys, body, message):
        guess = tmp_path / "guess.cfg"
        guess.write_text(body)
        out = tmp_path / "id"
        assert main(["identify", "--step", "1", "--guess", str(guess), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--step", "1"], ["--step", "3", "--window", "0.2", "--sweep", "0"],
         ["--step", "all", "--sweep", "0"]],
        ids=["shafts", "platform", "chain"],
    )
    def test_jobs_leave_every_artifact_byte_identical(self, tmp_path, argv):
        outs = []
        for jobs in ("1", "2"):
            outs.append(tmp_path / f"jobs{jobs}")
            assert main(["identify", *argv, "--jobs", jobs, "--out", str(outs[-1])]) == 0
        files = manifest(outs[0])["files"]
        assert files == manifest(outs[1])["files"]
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize(
        "step, files",
        [
            ("1", {"fit_step1_wheel.csv", "fit_step1_platform.csv"}),
            ("2", {"fit_step2.csv"}),
            ("3", {"fit_step3.csv"}),
        ],
    )
    def test_a_step_writes_the_fit_files_of_its_fits(self, tmp_path, step, files):
        out = tmp_path / "id"
        argv = ["identify", "--step", step, "--sweep", "0", "--window", "0.2", "--out", str(out)]
        assert main(argv) == 0
        assert {p.name for p in out.glob("fit_*.csv")} == files
        assert set(manifest(out)["files"]) == {"report.txt", "estimates.csv", *files}

    def test_guess_file_takes_the_keys_of_every_step(self, tmp_path):
        guess = tmp_path / "guess.cfg"
        guess.write_text("Ia = 0.02\nmc = 60\ndeviation = 0.1\n")
        out = tmp_path / "id"
        assert main(["identify", "--step", "1", "--guess", str(guess), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "estimates.csv").read_text().splitlines()]
        assert rows[1][:3] == ["step1", "Ia", "0.02"]


class TestControl:
    def test_plan_scenario_reports_drift_and_tracking(self, tmp_path):
        gains = tmp_path / "gains.cfg"
        gains.write_text("t_stab = 2.0\n")
        out = tmp_path / "run"
        code = main(
            ["control", "--scenario", "plan", "--gains", str(gains),
             "--rate", "50", "--out", str(out)]
        )
        assert code == 0
        report = dict(
            line.split(" = ") for line in (out / "report.txt").read_text().splitlines()
        )
        assert report["scenario"] == "plan-tracking"
        assert report["kp"] == "40.000"
        assert report["kv"] == "22.000"
        drift = float(report["open_loop_drift_final"])
        closed = float(report["closed_loop_position_error_max"])
        assert drift > 10.0 * closed
        m = manifest(out)
        assert "plan.csv" in m["files"]
        assert "replay.csv" in m["files"]
        # the generated plan is hashed alongside the scenario file
        assert any(key.endswith("plan.csv") for key in m["config_sha256"])

    @staticmethod
    def _short_plan_scenario(folder: Path, name: str, mass_error: str = "0.05") -> Path:
        """The bundled plan scenario over 2 s with ``mass_error``, written to ``folder``."""
        bundled = Path(otbot.__file__).with_name("scenarios")
        text = (bundled / "plan-tracking.cfg").read_text()
        text = text.replace("horizon = 10", "horizon = 2").replace("mass_error = 0.05", f"mass_error = {mass_error}")
        shutil.copy(bundled / "nominal.cfg", folder)
        (folder / name).write_text(text)
        return folder / name

    def test_a_plan_is_built_afresh_whatever_out_holds(self, tmp_path):
        # two scenarios that differ only in the planner's mass error, run into
        # one --out: the second run's plan is its own, not the one left there
        small = self._short_plan_scenario(tmp_path, "small.cfg", "0.05")
        large = self._short_plan_scenario(tmp_path, "large.cfg", "0.5")
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        for scenario, out in ((small, shared), (large, shared), (large, fresh)):
            assert main(["control", "--scenario", str(scenario), "--out", str(out)]) == 0
        for name in ("plan.csv", "replay.csv", "report.txt"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name
        assert manifest(shared)["config_sha256"] == {
            key.replace(str(fresh), str(shared)): value for key, value in manifest(fresh)["config_sha256"].items()}

    def test_a_plan_runs_from_its_first_sample_whatever_its_start_time(self, tmp_path):
        scenario = self._short_plan_scenario(tmp_path, "short.cfg")
        assert main(["control", "--scenario", str(scenario), "--out", str(tmp_path / "built")]) == 0
        plan = trajectory_from_csv(tmp_path / "built" / "plan.csv")
        shifted = tmp_path / "shifted.csv"
        trajectory_to_csv(SimTrajectory(plan.times + 5.0, plan.states, plan.controls), shifted)
        out = tmp_path / "run"
        assert main(["control", "--scenario", str(scenario), "--plan", str(shifted), "--out", str(out)]) == 0
        report = dict(line.split(" = ") for line in (out / "report.txt").read_text().splitlines())
        assert float(report["closed_loop_position_error_max"]) < 1e-3
        reference = np.loadtxt(out / "reference.csv", delimiter=",", skiprows=1, max_rows=1)
        assert reference[0] == 0.0 and (reference[1:4] == plan.states[0, :3]).all()
        assert trajectory_from_csv(out / "replay.csv").times[0] == 0.0

    def test_a_huge_torque_in_the_first_plan_row_is_one_error_line(self, tmp_path, capsys):
        # away from rest, the first derivative overflows and the guess of the
        # first step is 0: a step size underflow, as in any later row
        plan = tmp_path / "plan.csv"
        rows = [f"{t!r},0.5,0.25" + ",0.0" * 12 + f",{tau!r}" for t, tau in ((0.0, 1e300), (0.01, 0.0), (0.02, 0.0))]
        plan.write_text(",".join(TRAJECTORY_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        code = main(["control", "--scenario", "plan", "--plan", str(plan), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: step size underflow at t = 0.000000e+00 (first step guess h = 0)"]

    @pytest.mark.parametrize("engine", ["c", "python"])
    def test_gains_that_blow_up_the_loop_leave_one_error_line_and_no_report(
        self, tmp_path, capsys, recwarn, request, engine
    ):
        # t_stab = 1e-12 gives kp = 1.6e26: the correction overflows and the
        # rollout ends in a step size underflow, a numerical failure
        if engine == "python":
            request.getfixturevalue("python_kernel")
        gains = tmp_path / "gains.cfg"
        gains.write_text("t_stab = 1e-12\n")
        out = tmp_path / "x"
        code = main(["control", "--scenario", "corridor", "--gains", str(gains), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: step size underflow") and err.count("\n") == 1, err
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, broken, call",
        [
            (["control", "--scenario", "corridor-2s.cfg"], "torque_feasibility", 1),
            (["control", "--scenario", "plan-2s.cfg"], "open_loop_replay", 1),
            (["identify", "--step", "1", "--sweep", "0"], "predict_outputs", 2),
            (["control", "--scenario", "plan-2s.cfg"], "--gains", None),
        ],
        ids=["control-feasibility", "control-plan-replay", "identify-second-prediction",
             "control-plan-gains-blow-up"],
    )
    def test_a_run_that_fails_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, argv, broken, call):
        # a run writes once its computations have returned: a numerical failure
        # makes no fresh --out and leaves a finished run's --out byte for byte
        argv = _write_inputs(tmp_path, argv, {}, {"corridor-2s.cfg": ("corridor", "horizon = 30", "horizon = 2"),
                                                 "plan-2s.cfg": ("plan-tracking", "horizon = 10", "horizon = 2")})
        done, fresh = tmp_path / "done", tmp_path / "fresh"
        assert main(argv + ["--out", str(done)]) == 0
        before = {p.name: p.read_bytes() for p in done.iterdir()}
        if broken == "--gains":
            # t_stab = 1e-12 overflows the closed loop's correction
            (tmp_path / "gains.kv").write_text("t_stab = 1e-12\n")
            argv += ["--gains", str(tmp_path / "gains.kv")]
        real = getattr(cli, broken, None)
        capsys.readouterr()
        for out in (fresh, done):
            if real is not None:
                calls = []

                def failing(*args, **kwargs):
                    calls.append(None)
                    if len(calls) == call:
                        raise IntegrationError("step size underflow", 0.0, 0.0, 0)
                    return real(*args, **kwargs)

                monkeypatch.setattr(cli, broken, failing)
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: step size underflow") and err.count("\n") == 1, err
        assert not fresh.exists()
        assert {p.name: p.read_bytes() for p in done.iterdir()} == before

    def test_a_plan_built_in_memory_runs_as_its_file_does(self, tmp_path):
        scenario = self._short_plan_scenario(tmp_path, "short.cfg")
        built, read = tmp_path / "built", tmp_path / "read"
        assert main(["control", "--scenario", str(scenario), "--out", str(built)]) == 0
        assert main(["control", "--scenario", str(scenario), "--plan", str(built / "plan.csv"),
                     "--out", str(read)]) == 0
        for name in ("trajectory.csv", "errors.csv", "reference.csv", "torques.csv", "replay.csv", "report.txt"):
            assert (built / name).read_bytes() == (read / name).read_bytes(), name

    def test_a_plan_read_from_out_is_left_as_it_was(self, tmp_path):
        # a --plan run writes no plan.csv, so it may read the one of a finished run in --out
        scenario = self._short_plan_scenario(tmp_path, "short.cfg")
        out = tmp_path / "run"
        assert main(["control", "--scenario", str(scenario), "--out", str(out)]) == 0
        plan = (out / "plan.csv").read_bytes()
        assert main(["control", "--scenario", str(scenario), "--plan", str(out / "plan.csv"),
                     "--out", str(out)]) == 0
        assert (out / "plan.csv").read_bytes() == plan

    def test_missing_plan_file_is_a_config_error(self, tmp_path, capsys):
        code = main(
            ["control", "--scenario", "plan", "--plan", str(tmp_path / "ghost.csv"),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, source, name, text",
        [
            (["simulate", "--torques", "1,2,3", "--duration", "0.1", "--params", "READ"],
             "--params READ", "trajectory.csv", "nominal"),
            (["control", "--scenario", "plan", "--plan", "plan.csv", "--gains", "READ"],
             "--gains READ", "report.txt", "gains"),
            (["identify", "--step", "1", "--sweep", "0", "--guess", "READ"],
             "--guess READ", "estimates.csv", "guess"),
            (["control", "--scenario", "plan", "--plan", "READ"], "--plan READ", "trajectory.csv", "plan"),
            (["simulate", "--scenario", "READ"], "--scenario READ", "imu.csv", "scenario"),
            (["simulate", "--scenario", "short.cfg"], "SHORT: [params] file READ", "trajectory.csv", "nominal"),
        ],
        ids=["params", "gains", "guess", "plan", "scenario", "scenario-params-file"],
    )
    def test_an_output_that_would_replace_a_file_the_run_read_is_refused(
        self, tmp_path, capsys, argv, source, name, text
    ):
        # the file lies in --out under the name of an output of the run,
        # which is told of it by another spelling of its path
        bundled = Path(otbot.__file__).with_name("scenarios")
        short = (bundled / "chassis-excitation.cfg").read_text().replace("horizon = 3", "horizon = 0.1")
        texts = {"nominal": (bundled / "nominal.cfg").read_text(), "gains": "t_stab = 2\n", "guess": "Ia = 0.02\n",
                 "plan": _plan_text(0.0, 0.01, 0.02), "scenario": short.replace("file = nominal.cfg", "")}
        out = tmp_path / "run"
        out.mkdir()
        (out / name).write_text(texts[text])
        (tmp_path / "plan.csv").write_text(texts["plan"])
        (tmp_path / "short.cfg").write_text(short.replace("file = nominal.cfg", "file = run/../run/trajectory.csv"))
        read = str(out / ".." / "run" / name)
        argv = [str(tmp_path / arg) if arg in ("plan.csv", "short.cfg") else arg.replace("READ", read)
                for arg in argv]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--out", str(out)]) == 2
        source = source.replace("READ", read).replace("SHORT", str(tmp_path / "short.cfg"))
        assert capsys.readouterr().err == f"error: {source}: the run writes its own {name} into --out\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_shaft_scenario_is_redirected(self, tmp_path, capsys):
        assert main(["control", "--scenario", "wheel-spin", "--out", str(tmp_path / "x")]) == 2
        assert "use the simulate subcommand" in capsys.readouterr().err


    def test_a_controller_scenario_runs_for_its_horizon(self, tmp_path):
        """horizon = 5 in a copy of corridor.cfg: the first 5 s of the bundled run."""
        bundled = Path(otbot.__file__).with_name("scenarios")
        text = (bundled / "corridor.cfg").read_text()
        (tmp_path / "short.cfg").write_text(text.replace("horizon = 30", "horizon = 5"))
        shutil.copy(bundled / "nominal.cfg", tmp_path)
        runs = {}
        for name, scenario in (("full", "corridor"), ("short", str(tmp_path / "short.cfg"))):
            for command in ("control", "check-torques"):
                out = tmp_path / name / command
                assert main([command, "--scenario", scenario, "--out", str(out)]) == 0
                runs[name, command] = out
        rows = {"trajectory.csv": 5001, "errors.csv": 5001, "reference.csv": 5001,
                "torques.csv": 5001, "feasibility.csv": 501}
        for command in ("control", "check-torques"):
            for table, n in rows.items():
                if command == "check-torques" and table != "feasibility.csv":
                    continue
                full, short = ((runs[name, command] / table).read_bytes().splitlines(True)
                               for name in ("full", "short"))
                assert len(short) == n + 1 and short == full[: n + 1], (command, table)
                assert short[-1].startswith(b"5.0,")
        # the scenario's [params] file is hashed beside the scenario file
        for name, folder in (("full", bundled), ("short", tmp_path)):
            nominal = folder / "nominal.cfg"
            assert manifest(runs[name, "check-torques"])["config_sha256"][str(nominal)] == \
                hashlib.sha256(nominal.read_bytes()).hexdigest()


class TestCheckTorques:
    def test_figure8_fits_inside_a_wider_limit(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["check-torques", "--scenario", "figure8", "--limit", "120", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "feasible"
        report = (out / "report.txt").read_text()
        assert "feasible = True" in report
        assert "torque_limit = 120.0" in report

    def test_needs_a_controller_scenario(self, tmp_path, capsys):
        code = main(["check-torques", "--scenario", "wheel-spin", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "controller scenario" in capsys.readouterr().err


class TestDegenerateParams:
    """Tiny but valid masses and inertias, on which the model's mass matrix
    is singular in floating point: a numerical failure, not a bad input."""

    @pytest.mark.parametrize("engine", ["c", "python"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--torques", "1,2,3", "--duration", "0.1"],
        ["check-torques", "--scenario", "figure8"],
    ], ids=["simulate", "check-torques"])
    def test_a_zero_determinant_exits_one_with_one_line(self, tmp_path, capsys, request, argv, engine):
        if engine == "python":
            request.getfixturevalue("python_kernel")
        tiny = tmp_path / "tiny.cfg"
        save_params(nominal_params().replace(mc=1e-300, mp=1e-300, Ic=1e-300, Ip=1e-300, Ia=1e-300),
                    tiny)
        code = main([*argv, "--params", str(tiny), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestHugeParams:
    """Huge but finite values, whose first derivative overflows: the first
    step size underflows at t = 0, a numerical failure, not a bad input."""

    @pytest.mark.parametrize("engine", ["c", "python"])
    @pytest.mark.parametrize("case", ["bw-corridor", "shaft-torque"])
    def test_a_huge_value_underflows_the_first_step(self, tmp_path, capsys, request, case, engine):
        if engine == "python":
            request.getfixturevalue("python_kernel")
        if case == "bw-corridor":
            params = tmp_path / "params.cfg"
            save_params(nominal_params().replace(bw=1e300), params)
            argv = ["control", "--scenario", "corridor", "--params", str(params)]
        else:
            bundled = Path(otbot.__file__).with_name("scenarios")
            text = (bundled / "wheel-spin.cfg").read_text().replace("torque = 6", "torque = 1e300")
            (tmp_path / "spin.cfg").write_text(text)
            shutil.copy(bundled / "nominal.cfg", tmp_path)
            argv = ["simulate", "--scenario", str(tmp_path / "spin.cfg")]
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: step size underflow at t = 0.000000e+00 (h = 0.000e+00, 0 rejected steps so far)"]
        assert not out.exists()


def _plan_text(*times) -> str:
    """A plan file at rest on the given times."""
    return ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(f"{t!r}" + ",0.0" * 15 + "\n" for t in times)


def _write_inputs(tmp_path, argv, key_files, scenario_files) -> list[str]:
    """``argv`` with each name of ``key_files`` (its text) or ``scenario_files``
    written to ``tmp_path`` and replaced by its path, and ``DIR`` made there a
    directory where a file goes. A scenario file is a bundled scenario with
    lines changed, ``(name, line, changed, ...)``, next to the parameter file
    it refers to."""
    bundled = Path(otbot.__file__).with_name("scenarios")
    argv = list(argv)
    for i, arg in enumerate(argv):
        path = tmp_path / arg
        if arg in key_files:
            path.write_text(key_files[arg])
        elif arg == "DIR":
            path.mkdir(exist_ok=True)
        elif arg in scenario_files:
            name, *edits = scenario_files[arg]
            text = (bundled / f"{name}.cfg").read_text()
            for line, changed in zip(edits[::2], edits[1::2]):
                assert text.count(line) == 1
                text = text.replace(line, changed)
            path.write_text(text)
            shutil.copy(bundled / "nominal.cfg", tmp_path)
        else:
            continue
        argv[i] = str(path)
    return argv


class TestBadNumericFlags:
    """Bad numbers exit 2 with one line naming the flag and write no --out."""

    # gain and plan files that cases below name, written next to --out
    KEY_FILES = {
        "zero.kv": "t_stab = 0\n", "negative.kv": "t_stab = -1\n", "nan.kv": "t_stab = nan\n",
        "huge.kv": "# gains that underflow to 0\nt_stab = 1e300\n",
        "two-rows.csv": _plan_text(0.0, 0.01), "uneven.csv": _plan_text(0.0, 0.01, 0.03, 0.04),
        "nan-state.csv": _plan_text(0.0, 0.01, 0.02).replace("0.01,0.0,", "0.01,nan,"),
        "inf-torque.csv": _plan_text(0.0, 0.01, 0.02).replace("0.0\n0.02", "inf\n0.02"),
        "word-cell.csv": _plan_text(0.0, 0.01, 0.02).replace("0.01,0.0,", "0.01,fast,"),
        "short-rows.csv": _plan_text(0.0, 0.01, 0.02).replace(",0.0\n", "\n"),
        "short-row.csv": _plan_text(0.0, 0.01, 0.02).replace("0.01" + ",0.0" * 15, "0.01" + ",0.0" * 14),
        "blank-line.csv": _plan_text(0.0, 0.01, 0.02) + "\n",
    }
    # scenario files that cases below name: a bundled scenario with one line
    # changed, written next to --out with the parameter file it refers to
    SCENARIO_FILES = {
        "t-stab-negative.cfg": ("corridor", "t_stab = 3", "t_stab = -1"),
        "t-stab-nan.cfg": ("corridor", "t_stab = 3", "t_stab = nan"),
        "rate-zero.cfg": ("corridor", "rate = 1000", "rate = 0"),
        "rate-negative.cfg": ("corridor", "rate = 1000", "rate = -5"),
        "torque-rate-zero.cfg": ("chassis-excitation", "6, -10, 6\nrate = 100", "6, -10, 6\nrate = 0"),
        "sensor-rate-inf.cfg": ("chassis-excitation", "e-3\nrate = 100", "e-3\nrate = inf"),
        "plan-rate-negative.cfg": ("plan-tracking", "[plan]\nrate = 100", "[plan]\nrate = -1"),
        "rate-fraction.cfg": ("corridor", "rate = 1000", "rate = 0.45"),
        "seed-negative.cfg": ("chassis-excitation", "seed = 1", "seed = -1"),
        "params-lowercase.cfg": ("corridor", "bp = 0", "bp = 0\nic = 1.5"),
        "params-bogus.cfg": ("corridor", "bp = 0", "bp = 0\nbogus = 3"),
        "control-typo.cfg": ("corridor", "t_stab = 3", "t_sabb = 1"),
        "section-typo.cfg": ("corridor", "[control]", "[contrl]"),
        "shaft-rate-zero.cfg": ("wheel-spin", "torque = 6\nrate = 100", "torque = 6\nrate = 0"),
        "shaft-horizon-short.cfg": ("wheel-spin", "horizon = 0.5", "horizon = 0.001"),
        "torques-horizon-short.cfg": ("chassis-excitation", "horizon = 3", "horizon = 0.001"),
        "horizon-inf.cfg": ("chassis-excitation", "horizon = 3", "horizon = inf"),
        "torques-horizon-fraction.cfg": ("chassis-excitation", "horizon = 3", "horizon = 3.015"),
        "horizon-past-reference.cfg": ("corridor", "horizon = 30", "horizon = 30.5"),
        "horizon-off-feasibility-grid.cfg": ("figure8", "horizon = 18", "horizon = 5.005"),
        "sensor-gyro.cfg": ("chassis-excitation", "imu = 13.73e-3", "gyro = 0.1"),
        "sensor-encoder-on-robot.cfg": ("chassis-excitation", "imu = 13.73e-3", "encoder = 0.1"),
        "sensor-imu-on-shaft.cfg": ("wheel-spin", "encoder = 0.01", "imu = 0.01"),
        "sensor-sigma-nan.cfg": ("chassis-excitation", "imu = 13.73e-3", "imu = nan"),
        "sensor-sigma-negative.cfg": ("wheel-spin", "encoder = 0.01", "encoder = -1"),
        "pulse-on-torques.cfg": ("chassis-excitation", "[sensors]",
                                 "[disturbances]\npulse1 = 0.5, 1.0, 500, 0\n[sensors]"),
        "imu-on-controller.cfg": ("corridor", "rate = 1000", "rate = 1000\n[sensors]\nimu = 0.01"),
        "reference-in-plan.cfg": ("plan-tracking", "t_stab = 3", "t_stab = 3\nreference = corridor"),
        "torques-nan.cfg": ("chassis-excitation", "values = 6, -10, 6", "values = 6, nan, 6"),
        "shaft-torque-inf.cfg": ("wheel-spin", "torque = 6", "torque = inf"),
        "initial-q-nan.cfg": ("corridor", "q = 0, 0, 0, 0, 0, 0", "q = 0, 0, nan, 0, 0, 0"),
        "pulse-nan.cfg": ("figure8", "pulse1 = 4, 5, 0, -150", "pulse1 = 4, 5, nan, -150"),
        "mass-error-nan.cfg": ("plan-tracking", "mass_error = 0.05", "mass_error = nan"),
        "mass-error-minus-one.cfg": ("plan-tracking", "mass_error = 0.05", "mass_error = -1"),
        "rate-word.cfg": ("corridor", "rate = 1000", "rate = fast"),
        "seed-fraction.cfg": ("chassis-excitation", "seed = 1", "seed = 1.5"),
        "params-word.cfg": ("corridor", "bw = 0", "bw = slow"),
        "params-negative-mass.cfg": ("corridor", "bp = 0", "bp = 0\nmc = -1"),
        "torque-rate-huge.cfg": ("chassis-excitation", "6, -10, 6\nrate = 100", "6, -10, 6\nrate = 1e300"),
        "sensor-rate-huge.cfg": ("chassis-excitation", "e-3\nrate = 100", "e-3\nrate = 1e300"),
        "default-section.cfg": ("chassis-excitation", "[scenario]", "[DEFAULT]\nseed = 3\n\n[scenario]"),
        "torques-horizon-huge.cfg": ("chassis-excitation", "horizon = 3", "horizon = 1e300"),
        "shaft-horizon-huge.cfg": ("wheel-spin", "horizon = 0.5", "horizon = 1e300"),
        "plan-horizon-huge.cfg": ("plan-tracking", "horizon = 10", "horizon = 1e300"),
        "torques-horizon-1e9.cfg": ("chassis-excitation", "horizon = 3", "horizon = 1e9"),
        "shaft-horizon-1e9.cfg": ("wheel-spin", "horizon = 0.5", "horizon = 1e9"),
        "plan-horizon-1e9.cfg": ("plan-tracking", "horizon = 10", "horizon = 1e9"),
        "mass-error-huge.cfg": ("plan-tracking", "horizon = 10", "horizon = 1",
                                "mass_error = 0.05", "mass_error = 1e300"),
        "t-stab-huge.cfg": ("corridor", "t_stab = 3", "t_stab = 1e300"),
        "plan-file-key.cfg": ("plan-tracking", "[plan]\nrate", "[plan]\nfile = trajectory.csv\nrate"),
    }

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--torques", "a,b,c", "--duration", "1"], "--torques"),
            (["simulate", "--torques", "1,2,3", "--duration", "1", "--rate", "0"], "--rate"),
            (["simulate", "--torques", "1,2,3", "--duration", "-1"], "--duration"),
            (["check-torques", "--scenario", "figure8", "--limit", "-5"], "--limit"),
            (["control", "--scenario", "corridor", "--rate", "-100"], "--rate"),
            (["identify", "--jobs", "0"], "--jobs"),
            (["identify", "--jobs", "-3"], "--jobs"),
            (["identify", "--sweep", "-1"], "--sweep"),
            (["identify", "--step", "3", "--window", "0"], "--window"),
            (["control", "--scenario", "corridor", "--gains", "zero.kv"], "zero.kv:1"),
            (["control", "--scenario", "corridor", "--gains", "negative.kv"], "negative.kv:1"),
            (["control", "--scenario", "corridor", "--gains", "nan.kv"], "nan.kv:1"),
            (["control", "--scenario", "t-stab-negative.cfg"], "t-stab-negative.cfg: [control] t_stab"),
            (["check-torques", "--scenario", "t-stab-nan.cfg"], "t-stab-nan.cfg: [control] t_stab"),
            (["control", "--scenario", "rate-zero.cfg"], "rate-zero.cfg: [control] rate"),
            (["control", "--scenario", "rate-negative.cfg"], "rate-negative.cfg: [control] rate"),
            (["simulate", "--scenario", "torque-rate-zero.cfg"], "torque-rate-zero.cfg: [torques] rate"),
            (["simulate", "--scenario", "sensor-rate-inf.cfg"], "sensor-rate-inf.cfg: [sensors] rate"),
            (["control", "--scenario", "plan-rate-negative.cfg"], "plan-rate-negative.cfg: [plan] rate"),
            (["control", "--scenario", "rate-fraction.cfg"], "rate-fraction.cfg: [control] rate"),
            (["simulate", "--scenario", "seed-negative.cfg"], "seed-negative.cfg: [scenario] seed"),
            (["control", "--scenario", "params-lowercase.cfg"],
             "params-lowercase.cfg: [params] unknown key 'ic'"),
            (["control", "--scenario", "params-bogus.cfg"], "params-bogus.cfg: [params] unknown key 'bogus'"),
            (["check-torques", "--scenario", "control-typo.cfg"],
             "control-typo.cfg: [control] unknown key 't_sabb'"),
            (["control", "--scenario", "section-typo.cfg"], "section-typo.cfg: unknown section [contrl]"),
            (["simulate", "--scenario", "shaft-rate-zero.cfg"], "shaft-rate-zero.cfg: [shaft] rate"),
            (["simulate", "--scenario", "shaft-horizon-short.cfg"],
             "shaft-horizon-short.cfg: [scenario] horizon 0.001 s holds 0.1 periods of"),
            (["simulate", "--scenario", "torques-horizon-short.cfg"],
             "torques-horizon-short.cfg: [scenario] horizon 0.001 s holds 0.1 periods of"),
            (["simulate", "--scenario", "horizon-inf.cfg"], "horizon-inf.cfg: [scenario] horizon"),
            (["simulate", "--scenario", "chassis-excitation", "--seed", "-1"], "--seed"),
            (["identify", "--step", "1", "--seed", "-2"], "--seed"),
            (["control", "--scenario", "corridor", "--rate", "0.45"], "--rate"),
            (["control", "--scenario", "plan", "--rate", "0.45"], "--rate"),
            (["simulate", "--torques", "1,2,3", "--duration", "0.001", "--rate", "100"], "--duration"),
            (["identify", "--step", "3", "--window", "0.004"], "--window"),
            (["simulate", "--torques", "1,2,3", "--duration", "0.015", "--rate", "100"],
             "--duration 0.015 s holds 1.5 periods of --rate 100.0 Hz, not a whole number from 1 to"),
            (["identify", "--step", "3", "--window", "0.015"],
             "--window 0.015 s holds 1.5 periods of the sample rate 100.0 Hz, not a whole number"),
            (["simulate", "--scenario", "torques-horizon-fraction.cfg"],
             "torques-horizon-fraction.cfg: [scenario] horizon 3.015 s holds 301.5 periods of"),
            (["control", "--scenario", "horizon-past-reference.cfg"],
             "horizon-past-reference.cfg: [scenario] horizon 30.5 s runs past the 30.0 s"),
            (["check-torques", "--scenario", "horizon-off-feasibility-grid.cfg"],
             "horizon-off-feasibility-grid.cfg: [scenario] horizon 5.005 s holds 500.5 periods of the "
             "feasibility grid 100.0 Hz"),
            (["simulate", "--scenario", "sensor-gyro.cfg"],
             "sensor-gyro.cfg: [sensors] unknown sensor kind 'gyro'"),
            (["simulate", "--scenario", "sensor-encoder-on-robot.cfg"],
             "sensor-encoder-on-robot.cfg: [sensors] encoder needs a shaft axis"),
            (["simulate", "--scenario", "sensor-imu-on-shaft.cfg"],
             "sensor-imu-on-shaft.cfg: [sensors] imu needs the whole robot"),
            (["simulate", "--scenario", "sensor-sigma-nan.cfg"], "sensor-sigma-nan.cfg: [sensors] imu"),
            (["simulate", "--scenario", "sensor-sigma-negative.cfg"],
             "sensor-sigma-negative.cfg: [sensors] encoder must be finite and non-negative"),
            (["simulate", "--scenario", "pulse-on-torques.cfg"],
             "pulse-on-torques.cfg: a torques scenario does not read [disturbances]"),
            (["control", "--scenario", "imu-on-controller.cfg"],
             "imu-on-controller.cfg: a controller scenario does not read [sensors]"),
            (["control", "--scenario", "reference-in-plan.cfg"],
             "reference-in-plan.cfg: a plan scenario does not read [control] reference"),
            (["simulate", "--scenario", "torques-nan.cfg"], "torques-nan.cfg: [torques] values needs 3"),
            (["simulate", "--scenario", "shaft-torque-inf.cfg"], "shaft-torque-inf.cfg: [shaft] torque"),
            (["control", "--scenario", "initial-q-nan.cfg"], "initial-q-nan.cfg: [initial] q needs 6"),
            (["control", "--scenario", "pulse-nan.cfg"], "pulse-nan.cfg: [disturbances] pulse1"),
            (["control", "--scenario", "mass-error-nan.cfg"], "mass-error-nan.cfg: [plan] mass_error"),
            (["control", "--scenario", "mass-error-minus-one.cfg"],
             "mass-error-minus-one.cfg: [plan] mass_error"),
            (["control", "--scenario", "plan", "--plan", "two-rows.csv"],
             "two-rows.csv: plan needs at least three samples"),
            (["control", "--scenario", "plan", "--plan", "uneven.csv"],
             "uneven.csv: plan grid must be uniform"),
            (["control", "--scenario", "corridor", "--plan", "nonexist.csv", "--rate", "100"],
             "--plan needs a plan scenario"),
            (["simulate", "--scenario", "chassis-excitation", "--torques", "1,2,3"], "--torques"),
            (["simulate", "--scenario", "chassis-excitation", "--duration", "0.5"], "--duration"),
            (["simulate", "--scenario", "wheel-spin", "--rate", "100"], "--rate"),
            (["simulate", "--torques", "1,2,3", "--duration", "0.1", "--seed", "-4"],
             "--seed does not apply to --torques"),
            (["control", "--scenario", "rate-word.cfg"],
             "rate-word.cfg: [control] rate must be a number, got 'fast'"),
            (["simulate", "--scenario", "seed-fraction.cfg"],
             "seed-fraction.cfg: [scenario] seed must be an integer, got '1.5'"),
            (["control", "--scenario", "params-word.cfg"],
             "params-word.cfg: [params] bw must be a number, got 'slow'"),
            (["control", "--scenario", "params-negative-mass.cfg"],
             "params-negative-mass.cfg: [params] mc must be positive"),
            (["identify", "--step", "1", "--params", "DIR"], "--params"),
            (["identify", "--step", "1", "--guess", "DIR"], "--guess"),
            (["control", "--scenario", "corridor", "--gains", "DIR"], "--gains"),
            (["control", "--scenario", "plan", "--plan", "DIR"], "--plan"),
            # rates whose periods no rollout can resolve, far past what an array can count
            (["simulate", "--torques", "1,2,3", "--duration", "0.01", "--rate", "1e300"],
             "--rate must have a period above 1e-09 s"),
            (["simulate", "--scenario", "torque-rate-huge.cfg"],
             "torque-rate-huge.cfg: [torques] rate must have a period above"),
            (["simulate", "--scenario", "sensor-rate-huge.cfg"],
             "sensor-rate-huge.cfg: [sensors] rate must have a period above"),
            (["simulate", "--scenario", "default-section.cfg"],
             "default-section.cfg: unknown section [DEFAULT]"),
            # run lengths of more periods than a run can count, which numpy refuses to allocate
            (["simulate", "--torques", "1,2,3", "--duration", "1e300"],
             "--duration 1e+300 s holds 1e+302 periods of --rate 100.0 Hz, not a whole number from 1 to "
             "9007199254740992"),
            (["simulate", "--torques", "1,2,3", "--duration", "1e12", "--rate", "1e6"],
             "--duration 1000000000000.0 s holds 1e+18 periods of --rate 1000000.0 Hz"),
            (["simulate", "--scenario", "torques-horizon-huge.cfg"],
             "torques-horizon-huge.cfg: [scenario] horizon 1e+300 s holds 1e+302 periods of"),
            (["simulate", "--scenario", "shaft-horizon-huge.cfg"],
             "shaft-horizon-huge.cfg: [scenario] horizon 1e+300 s holds"),
            (["control", "--scenario", "plan-horizon-huge.cfg"],
             "plan-horizon-huge.cfg: [scenario] horizon 1e+300 s holds"),
            (["identify", "--step", "3", "--window", "1e308"],
             "--window 1e+308 s holds inf periods of the sample rate 100.0 Hz"),
            # a plan cell that is no finite number, or a row of the wrong width, caught where
            # the plan is read
            (["control", "--scenario", "plan", "--plan", "nan-state.csv"],
             "nan-state.csv: the row on line 3 holds a value that is not finite"),
            (["control", "--scenario", "plan", "--plan", "inf-torque.csv"],
             "inf-torque.csv: the row on line 3 holds a value that is not finite"),
            (["control", "--scenario", "plan", "--plan", "word-cell.csv"],
             "word-cell.csv: could not convert string to float: 'fast'"),
            (["control", "--scenario", "plan", "--plan", "short-rows.csv"],
             "short-rows.csv: rows of 15 cells under 16 columns"),
            (["control", "--scenario", "plan", "--plan", "short-row.csv"],
             "short-row.csv: the row on line 3 holds 15 cells under 16 columns"),
            (["control", "--scenario", "plan", "--plan", "blank-line.csv"],
             "blank-line.csv: the row on line 5 holds 0 cells under 16 columns"),
            # run lengths that count but whose tables no run can allocate (a row bound)
            (["simulate", "--torques", "1,2,3", "--duration", "1e9"],
             "--duration 1000000000.0 s holds 100000000000.0 periods of --rate 100.0 Hz, more than the "
             "10000000 that a run may hold"),
            (["simulate", "--scenario", "torques-horizon-1e9.cfg"],
             "torques-horizon-1e9.cfg: [scenario] horizon 1000000000.0 s holds 100000000000.0 periods of"),
            (["simulate", "--scenario", "shaft-horizon-1e9.cfg"],
             "shaft-horizon-1e9.cfg: [scenario] horizon 1000000000.0 s holds"),
            (["control", "--scenario", "plan-horizon-1e9.cfg"],
             "plan-horizon-1e9.cfg: [scenario] horizon 1000000000.0 s holds"),
            (["identify", "--step", "3", "--sweep", "0", "--window", "1e8"],
             "--window 100000000.0 s holds 10000000000.0 periods of the sample rate 100.0 Hz, more than"),
            # a planner mass that overflows the plan's torques
            (["control", "--scenario", "mass-error-huge.cfg"],
             "mass-error-huge.cfg: [plan] mass_error must be above -1 and at most 1, got 1e+300"),
            # stabilisation times whose gains underflow to 0
            (["control", "--scenario", "corridor", "--gains", "huge.kv"],
             "huge.kv:2: t_stab must be positive with finite, normal gains"),
            (["control", "--scenario", "t-stab-huge.cfg"],
             "t-stab-huge.cfg: [control] t_stab must be positive with finite, normal gains"),
            (["check-torques", "--scenario", "t-stab-huge.cfg"],
             "t-stab-huge.cfg: [control] t_stab must be positive with finite, normal gains"),
            # a plan is built on each run or given with --plan, never named in the scenario
            (["control", "--scenario", "plan-file-key.cfg"], "plan-file-key.cfg: [plan] unknown key 'file'"),
        ],
        ids=["torques-not-numbers", "zero-rate", "negative-duration", "negative-limit",
             "negative-control-rate", "zero-jobs", "negative-jobs", "negative-sweep",
             "zero-window", "zero-t-stab", "negative-t-stab", "nan-t-stab",
             "scenario-negative-t-stab", "scenario-nan-t-stab", "scenario-zero-control-rate",
             "scenario-negative-control-rate", "scenario-zero-torque-rate",
             "scenario-inf-sensor-rate", "scenario-negative-plan-rate",
             "scenario-fractional-control-periods", "scenario-negative-seed",
             "scenario-lowercase-param", "scenario-unknown-param", "scenario-unknown-control-key",
             "scenario-unknown-section", "scenario-zero-shaft-rate", "scenario-shaft-horizon-under-one-period",
             "scenario-torques-horizon-under-one-period", "scenario-inf-horizon", "negative-seed",
             "negative-identify-seed", "fractional-control-periods",
             "plan-fractional-control-periods", "duration-under-one-period", "window-under-one-sample",
             "fractional-duration-periods", "fractional-window-periods",
             "scenario-fractional-torques-horizon", "scenario-horizon-past-reference",
             "scenario-horizon-off-feasibility-grid", "scenario-unknown-sensor-kind",
             "scenario-encoder-without-shaft", "scenario-imu-on-shaft",
             "scenario-nan-sensor-sigma", "scenario-negative-sensor-sigma", "scenario-pulse-on-torques", "scenario-imu-on-controller", "scenario-reference-in-plan",
             "scenario-nan-torque", "scenario-inf-shaft-torque", "scenario-nan-initial-q",
             "scenario-nan-pulse", "scenario-nan-mass-error", "scenario-mass-error-minus-one",
             "plan-two-rows", "plan-uneven-grid", "plan-file-on-controller",
             "torques-with-scenario", "duration-with-scenario", "rate-with-scenario",
             "seed-with-torques",
             "scenario-word-rate", "scenario-fractional-seed", "scenario-word-param",
             "scenario-negative-param", "params-directory", "guess-directory", "gains-directory",
             "plan-directory", "huge-rate", "scenario-huge-torque-rate", "scenario-huge-sensor-rate",
             "scenario-default-section", "huge-duration", "duration-too-many-periods",
             "scenario-huge-torques-horizon", "scenario-huge-shaft-horizon", "scenario-huge-plan-horizon",
             "huge-window", "plan-nan-state", "plan-inf-torque", "plan-word-cell",
             "plan-short-rows", "plan-short-row", "plan-trailing-blank-line",
             "duration-too-many-rows", "scenario-torques-horizon-too-many-rows",
             "scenario-shaft-horizon-too-many-rows", "scenario-plan-horizon-too-many-rows",
             "window-too-many-rows", "scenario-huge-mass-error", "huge-t-stab", "scenario-huge-t-stab",
             "check-torques-scenario-huge-t-stab", "scenario-plan-file-key"],
    )
    def test_exits_two_and_leaves_no_out(self, tmp_path, capsys, argv, flag):
        argv = _write_inputs(tmp_path, list(argv), self.KEY_FILES, self.SCENARIO_FILES)
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert not out.exists()
        if "DIR" in argv:
            assert err.endswith(f"{flag} {tmp_path / 'DIR'}: not a file\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--torques", "1,2,3", "--duration", "0.1", "--out", "FILE"], "--out FILE"),
            (["identify", "--step", "1", "--sweep", "0", "--out", "FILE/sub"], "--out FILE/sub"),
            (["scenarios", "--export", "FILE"], "--export FILE"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "export-is-a-file"],
    )
    def test_a_file_where_a_directory_goes_exits_two(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        Path("FILE").write_text("kept\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert flag in captured.err
        assert Path("FILE").read_text() == "kept\n"


class TestRunLength:
    """A run is a whole number of periods of every rate it uses: each (length,
    rate) pair that misses exits 2 with one line naming both, and no --out."""

    PLAN_FILES = {"plan.csv": _plan_text(0.0, 0.01, 0.02, 0.03)}
    SCENARIO_FILES = {
        "shaft-horizon.cfg": ("wheel-spin", "horizon = 0.5", "horizon = 0.505"),
        "shaft-sensors.cfg": ("wheel-spin", "encoder = 0.01\nrate = 100", "encoder = 0.01\nrate = 3"),
        "torques-horizon.cfg": ("chassis-excitation", "horizon = 3", "horizon = 3.015"),
        # the torques hold whole periods, the sensor grid does not
        "torques-sensors-past.cfg": ("chassis-excitation", "horizon = 3", "horizon = 1.1",
                                     "6, -10, 6\nrate = 100", "6, -10, 6\nrate = 10",
                                     "e-3\nrate = 100", "e-3\nrate = 5"),
        "torques-sensors-short.cfg": ("chassis-excitation", "horizon = 3", "horizon = 1.05",
                                      "6, -10, 6\nrate = 100", "6, -10, 6\nrate = 20",
                                      "e-3\nrate = 100", "e-3\nrate = 7"),
        "plan-horizon.cfg": ("plan-tracking", "horizon = 10", "horizon = 1.015"),
        "controller-horizon.cfg": ("figure8", "horizon = 18", "horizon = 5.005"),
        "control-rate.cfg": ("corridor", "rate = 1000", "rate = 0.45"),
    }

    @pytest.mark.parametrize(
        "argv, length, rate",
        [
            (["simulate", "--torques", "1,2,3", "--duration", "0.015", "--rate", "100"],
             "--duration 0.015 s", "--rate 100.0 Hz"),
            (["simulate", "--scenario", "shaft-horizon.cfg"],
             "shaft-horizon.cfg: [scenario] horizon 0.505 s", "shaft-horizon.cfg: [shaft] rate 100.0 Hz"),
            (["simulate", "--scenario", "shaft-sensors.cfg"],
             "shaft-sensors.cfg: [scenario] horizon 0.5 s", "shaft-sensors.cfg: [sensors] rate 3.0 Hz"),
            (["simulate", "--scenario", "torques-horizon.cfg"],
             "torques-horizon.cfg: [scenario] horizon 3.015 s", "torques-horizon.cfg: [torques] rate 100.0 Hz"),
            (["simulate", "--scenario", "torques-sensors-past.cfg"],
             "torques-sensors-past.cfg: [scenario] horizon 1.1 s",
             "torques-sensors-past.cfg: [sensors] rate 5.0 Hz"),
            (["simulate", "--scenario", "torques-sensors-short.cfg"],
             "torques-sensors-short.cfg: [scenario] horizon 1.05 s",
             "torques-sensors-short.cfg: [sensors] rate 7.0 Hz"),
            (["control", "--scenario", "plan-horizon.cfg"],
             "plan-horizon.cfg: [scenario] horizon 1.015 s", "plan-horizon.cfg: [plan] rate 100.0 Hz"),
            (["check-torques", "--scenario", "controller-horizon.cfg"],
             "controller-horizon.cfg: [scenario] horizon 5.005 s", "the feasibility grid 100.0 Hz"),
            (["control", "--scenario", "corridor", "--rate", "0.45"],
             "corridor.cfg: [scenario] horizon 30.0 s", "--rate 0.45 Hz"),
            (["control", "--scenario", "control-rate.cfg"],
             "control-rate.cfg: [scenario] horizon 30.0 s", "control-rate.cfg: [control] rate 0.45 Hz"),
            (["control", "--scenario", "plan", "--rate", "0.45"],
             "plan-tracking.cfg: [scenario] horizon 10.0 s", "--rate 0.45 Hz"),
            (["control", "--scenario", "plan", "--plan", "plan.csv", "--rate", "40"],
             "plan.csv: plan 0.03 s", "--rate 40.0 Hz"),
            (["identify", "--step", "3", "--window", "0.015"], "--window 0.015 s", "the sample rate 100.0 Hz"),
        ],
        ids=["duration-rate", "shaft-horizon-rate", "shaft-horizon-sensor-rate", "torques-horizon-rate",
             "torques-horizon-sensor-rate-past-end", "torques-horizon-sensor-rate-short",
             "plan-horizon-rate", "controller-horizon-feasibility-grid", "horizon-control-rate-flag",
             "horizon-control-rate", "plan-horizon-control-rate-flag", "plan-file-control-rate-flag",
             "window-sample-rate"],
    )
    def test_a_fractional_length_names_both_sources(self, tmp_path, capsys, argv, length, rate):
        argv = _write_inputs(tmp_path, argv, self.PLAN_FILES, self.SCENARIO_FILES)
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{length} holds " in err and f"{rate}, not a whole number from 1 to" in err
        assert not out.exists()


class TestKernelInManifest:
    """The manifest names the engine the rollouts (robot and shaft) ran on,
    the formatter that wrote the CSV tables and, in a run that drew sensor
    noise, its generator."""

    RUNS = [
        ["simulate", "--torques", "6,-10,6", "--duration", "0.2"],
        ["control", "--scenario", "corridor", "--rate", "50"],
        ["identify", "--step", "3", "--window", "0.2", "--sweep", "0"],
        ["simulate", "--scenario", "wheel-spin"],
        ["identify", "--step", "1"],
    ]

    @pytest.mark.parametrize("argv", RUNS, ids=["simulate", "control", "identify", "shaft", "shaft-fits"])
    def test_compiled_kernel(self, tmp_path, argv):
        expected = "python" if _ckernel.load() is None else "c"
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        m = manifest(tmp_path / "run")
        assert m["integrator"]["kernel"] == expected
        assert m["csv"] == ("python" if _ckernel.load_formatter() is None else "c")
        drew = argv[0] == "identify" or argv[:2] == ["simulate", "--scenario"]
        noise = "numpy" if _ckernel.load_noise() is None else "c"
        assert m.get("noise") == (noise if drew else None)

    def test_forced_fallback(self, tmp_path, python_kernel):
        assert main(self.RUNS[0] + ["--out", str(tmp_path / "run")]) == 0
        m = manifest(tmp_path / "run")
        assert m["integrator"]["kernel"] == "python" and m["csv"] == "python"

    def test_forced_fallback_runs_shafts_in_python(self, tmp_path, python_kernel):
        assert main(self.RUNS[3] + ["--out", str(tmp_path / "run")]) == 0
        m = manifest(tmp_path / "run")
        assert m["integrator"]["kernel"] == "python" and m["noise"] == "numpy"

    def test_python_rows_write_the_same_csv_bytes(self, tmp_path, monkeypatch):
        if _ckernel.load_formatter() is None:
            pytest.skip("no working C++ compiler: the CSV formatter cannot be built")
        argv = ["control", "--scenario", "corridor"]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        assert manifest(tmp_path / "c")["csv"] == "c"
        # the formatter cannot be built; the DP5 attempt stays loaded
        monkeypatch.setattr(_ckernel, "load_formatter", lambda: None)
        assert main(argv + ["--out", str(tmp_path / "python")]) == 0
        assert manifest(tmp_path / "python")["csv"] == "python"
        names = sorted(p.name for p in (tmp_path / "c").glob("*.csv"))
        assert len(names) == 5
        assert names == sorted(p.name for p in (tmp_path / "python").glob("*.csv"))
        for name in names:
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "python" / name).read_bytes(), name


class TestEntryPoint:
    def test_argparse_rejects_missing_out(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--scenario", "wheel-spin"])
        assert info.value.code == 2

    def test_installed_console_script(self, tmp_path):
        # Run the declared ``otbot`` script the way pip's wrapper does, so the
        # check needs no install step: import the target and exit with its result.
        scripts = declared_console_scripts()
        assert "otbot" in scripts
        module, _, function = scripts["otbot"].partition(":")
        assert module and function
        # The child imports the package under test, whatever the cwd and
        # however this process found it.
        package_root = str(Path(otbot.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        code = f"import sys; from {module} import {function}; sys.exit({function}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "scenarios"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "corridor" in proc.stdout

    @staticmethod
    def _fresh(code, tmp_path):
        """Run ``code`` in a fresh interpreter on the package under test."""
        package_root = str(Path(otbot.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_no_command_imports_scipy(self, tmp_path):
        # a fresh interpreter: scipy is a test dependency only
        code = """if True:
            import sys
            from otbot.cli import main
            assert "scipy" not in sys.modules, "import otbot.cli"
            for i, argv in enumerate([
                ["identify", "--step", "all", "--sweep", "0"], ["control", "--scenario", "figure8"],
                ["simulate", "--scenario", "chassis-excitation"], ["check-torques", "--scenario", "corridor"],
            ]):
                assert main([*argv, "--out", f"run{i}"]) == 0, argv
                assert "scipy" not in sys.modules, argv
            assert main(["scenarios"]) == 0
            assert "scipy" not in sys.modules, "scenarios"
        """
        self._fresh(code, tmp_path)

    def test_a_command_loads_only_what_it_runs(self, tmp_path):
        # no OpenSSL hash (_hashlib), no compile of the Python engine's
        # sensitivities, and on a warm cache no build tool; a run that draws
        # no noise leaves the noise library alone
        built = [_ckernel.build(source, _ckernel.COMPILER, flags) for source, flags in (
            (_ckernel.SOURCE, _ckernel.FLAGS), (_ckernel.FORMATTER_SOURCE, _ckernel.FORMATTER_FLAGS))]
        warm = all(path is not None and path.parent == _ckernel.cache_dir() for path in built)
        code = f"""if True:
            import sys
            from otbot import _ckernel
            from otbot.cli import main
            lean = {{"_hashlib", "otbot._task_sensitivity", *(["subprocess"] if {warm} else [])}}
            assert not lean & set(sys.modules), "import otbot.cli"
            for i, argv in enumerate([
                ["control", "--scenario", "figure8"], ["check-torques", "--scenario", "corridor"],
            ]):
                assert main([*argv, "--out", f"run{{i}}"]) == 0, argv
                assert not lean & set(sys.modules), (argv, lean & set(sys.modules))
            assert main(["scenarios"]) == 0
            assert not lean & set(sys.modules), "scenarios"
            assert _ckernel.load_noise.cache_info().currsize == 0, "the noise library loaded"
            # the noise of a fit and of a sensed rollout: numpy.random (which
            # imports secrets and so OpenSSL) only where the library is missing;
            # only the Python engine runs the sensitivities
            drawn = {{"numpy.random", "secrets", "_hashlib"}}
            assert main(["identify", "--step", "1", "--out", "fit"]) == 0
            assert ("otbot._task_sensitivity" in sys.modules) == (_ckernel.load() is None)
            assert main(["simulate", "--scenario", "wheel-spin", "--out", "sensed"]) == 0
            if _ckernel.load_noise() is not None:
                assert not drawn & set(sys.modules), drawn & set(sys.modules)
        """
        self._fresh(code, tmp_path)

    def test_the_python_engine_loads_the_sensitivities_for_a_fit(self, tmp_path):
        code = """if True:
            import sys
            from otbot import _ckernel
            from otbot.cli import main
            _ckernel.load = lambda: None
            assert main(["identify", "--step", "1", "--out", "run"]) == 0
            assert "otbot._task_sensitivity" in sys.modules
        """
        self._fresh(code, tmp_path)

    @pytest.mark.skipif(shutil.which("otbot") is None, reason="otbot console script not installed")
    def test_console_script_on_path(self):
        proc = subprocess.run(["otbot", "scenarios"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "corridor" in proc.stdout



# ---------------------------------------------------------------- streamed tables and the staged --out

_TRACKING = ("trajectory.csv", "errors.csv", "reference.csv", "torques.csv")
# a 2 s corridor with pulse edges on the block boundaries of 7 rows (at
# rows 7 and 13, the first and last of a block) and of 1000 rows (row 1000)
_PULSED_CORRIDOR = ("corridor", "horizon = 30", "horizon = 2", "rate = 1000",
                    "rate = 1000\n\n[disturbances]\npulse1 = 0.007, 0.013, 50, 0\npulse2 = 1, 1.5, 0, -40")


def _whole_run_tables(folder: Path, scenario: str):
    """The tracking tables of the ``control`` run of ``scenario`` from its whole
    :class:`TrackingResult`, each written with ``write_csv`` into ``folder``,
    and the result."""
    from otbot.control import closed_loop_simulate, track_planned_trajectory, tune_gains
    from otbot.scenarios import build_plan, load_scenario, make_reference
    from otbot.simulate import write_csv

    cfg = load_scenario(scenario)
    gains = tune_gains(cfg.t_stab)
    if cfg.mode == "controller":
        ref = make_reference(cfg.reference)
        result = closed_loop_simulate(cfg.params, cfg.initial_state(ref), ref, gains, control_rate=cfg.loop_rate,
                                      disturbances=cfg.disturbances, t_end=cfg.horizon)
    else:
        plan = build_plan(cfg.params, horizon=cfg.horizon, rate=cfg.plan_rate, mass_error=cfg.plan_mass_error)
        result = track_planned_trajectory(cfg.params, plan, gains, control_rate=cfg.loop_rate)
    folder.mkdir()
    traj, t = result.trajectory, result.trajectory.times
    trajectory_to_csv(traj, folder / "trajectory.csv")
    write_csv(folder / "errors.csv", ["time", *cli._prefix_suffix(("ep", "ev"), cli.XYA)], [t, result.e_p, result.e_v])
    write_csv(folder / "reference.csv", ["time", *cli._prefix_suffix(("pd", "vd", "ad"), cli.XYA)],
              [t, result.p_ref, result.v_ref, result.a_ref])
    write_csv(folder / "torques.csv", ["time", *cli._prefix_suffix(("u", "utraj", "ucorr"), cli.RLP)],
              [t, traj.controls, result.u_traj, result.u_corr])
    return result


class TestStreamedTables:
    @pytest.mark.parametrize("rows", [7, 1000])
    @pytest.mark.parametrize("engine", ["c", "python", "python-formatter"])
    @pytest.mark.parametrize("scenario", [_PULSED_CORRIDOR, ("plan-tracking", "horizon = 10", "horizon = 1")],
                             ids=["controller", "plan"])
    def test_the_tables_are_those_of_the_whole_run(self, tmp_path, monkeypatch, request, scenario, engine, rows):
        # rows that divide neither run (2001 and 1001 instants), and pulse
        # edges on block boundaries, on either engine and formatter
        if engine == "python":
            request.getfixturevalue("python_kernel")
        elif engine == "python-formatter":
            monkeypatch.setattr(_ckernel, "load_formatter", lambda: None)
        (path,) = _write_inputs(tmp_path, ["short.cfg"], {}, {"short.cfg": scenario})
        whole = _whole_run_tables(tmp_path / "whole", path)
        monkeypatch.setattr(otbot.simulate, "_BLOCK_ROWS", rows)
        out = tmp_path / "out"
        assert main(["control", "--scenario", path, "--out", str(out)]) == 0
        for name in _TRACKING:
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name
        report = dict(line.split(" = ") for line in (out / "report.txt").read_text().splitlines())
        peak = np.linalg.norm(whole.e_p[:, :2], axis=1).max()
        key = "peak_position_error" if scenario is _PULSED_CORRIDOR else "closed_loop_position_error_max"
        assert report[key] == repr(float(peak))
        if scenario is _PULSED_CORRIDOR:
            assert report["peak_alpha_error"] == repr(float(np.abs(whole.e_p[:, 2]).max()))
        else:  # the manifest hashes the built plan under its path in --out
            assert str(out / "plan.csv") in manifest(out)["config_sha256"]

    def test_a_figure8_lap_holds_a_block_of_its_tables(self, tmp_path):
        # tracemalloc sees numpy's buffers: the lap's tables are never whole,
        # so an 18 s lap peaks well under the 6.6 MB they took whole, and what
        # still grows with the lap (the plan's tables) stays small beside them
        if _ckernel.load() is None:
            pytest.skip("the compiled rollout loop cannot be loaded: an 18 s lap in Python is slow")
        import tracemalloc

        (quarter,) = _write_inputs(tmp_path, ["quarter.cfg"], {},
                                   {"quarter.cfg": ("figure8", "horizon = 18", "horizon = 4.5")})
        assert main(["control", "--scenario", "figure8", "--out", str(tmp_path / "warm")]) == 0
        peaks = {}
        for name, scenario in (("lap", "figure8"), ("quarter", quarter)):
            tracemalloc.start()
            try:
                assert main(["control", "--scenario", scenario, "--out", str(tmp_path / name)]) == 0
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["lap"] <= 3e6 and peaks["lap"] < 2.5 * peaks["quarter"], peaks

    @pytest.mark.parametrize("failing", ["write", "move", "report"])
    def test_a_write_that_fails_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, failing):
        # an OSError on the third table, reference.csv: from a staged write
        # (a full disk), or from its move into place once the run is done;
        # or from a text write, which names no file, of report.txt
        import errno

        argv = _write_inputs(tmp_path, ["control", "--scenario", "short.cfg"], {},
                             {"short.cfg": ("corridor", "horizon = 30", "horizon = 2")})
        done, fresh = tmp_path / "done", tmp_path / "new" / "fresh"
        assert main(argv + ["--out", str(done)]) == 0
        before = {p.name: p.read_bytes() for p in done.iterdir()}
        if failing == "write":
            real_write = otbot.simulate._write_rows

            def write_rows(fh, *args):
                if Path(fh.name).name == "reference.csv":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real_write(fh, *args)

            monkeypatch.setattr(otbot.simulate, "_write_rows", write_rows)
        elif failing == "report":
            def write_report(run, entries):
                with open(run.emit("report.txt"), "w"):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(cli, "_write_report", write_report)
        else:
            real_replace = os.replace

            def replace(src, dst):
                if Path(src).name == Path(dst).name == "reference.csv":  # the staged table into place
                    raise OSError(errno.EIO, os.strerror(errno.EIO), str(src), None, str(dst))
                return real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace)
        capsys.readouterr()
        name = "report.txt" if failing == "report" else "reference.csv"
        for out in (fresh, done):
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {out / name}: ") and err.count("\n") == 1, err
        assert not fresh.parent.exists()
        # the finished run's files, and nothing else: no staging directory is left
        assert {p.name: p.read_bytes() for p in done.iterdir()} == before


def test_main_builds_its_parser_once_and_runs_a_command_replaced_since(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "_cmd_scenarios", lambda args: 7)
    assert main(["scenarios"]) == 7 and main(["scenarios", "--export", "x"]) == 7
