"""Command-line front end: simulate / identify / control / check-torques.

Every run writes its CSV artifacts plus a manifest.json into --out. Exit
codes: 0 success, 2 configuration problems (bad files, bad flags), 1
numerical failures at run time. Errors print as a single line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _ckernel
from .control import (
    TorqueBounds,
    closed_loop_simulate,
    open_loop_replay,
    torque_feasibility,
    track_planned_trajectory,
    tune_gains,
)
from .identify import (
    FIT_TOLERANCE,
    GUESS,
    SAMPLE_RATE,
    parameter_bounds,
    platform_guess,
    predict_outputs,
    run_pipeline,
    sensitivity_sweep,
)
from .dynamics import RobotState
from .integrator import IntegrationError, IntegratorOptions
from .params import load_params, nominal_params, read_kv
from .scenarios import (
    ConfigError,
    _bundle_dir,
    checked,
    ensure_plan,
    float_list,
    load_scenario,
    make_reference,
    natural,
    non_negative,
    periods,
    scenario_listing,
    stabilisation_time,
)
from .references import plan_step
from .sensors import SensorModel
from .sensors import sample_sensors
from .simulate import (
    ControlSequence,
    format_float,
    simulate_robot,
    simulate_shaft,
    trajectory_from_csv,
    trajectory_to_csv,
    write_csv,
)


# output channels of each sensor kind, in the column order of its records
SENSOR_CHANNELS = {"imu": ("accel_x", "accel_y", "angular_rate"), "encoder": ("rate",)}
XYA = ("x", "y", "alpha")  # task coordinates
RLP = ("r", "l", "p")  # actuated joints


def _prefix_suffix(prefixes, suffixes) -> list[str]:
    """Column names ``prefix_suffix``, suffixes varying fastest."""
    return [f"{p}_{s}" for p in prefixes for s in suffixes]


def _sha256(path: Path) -> str:
    return _ckernel.sha256(path.read_bytes()).hexdigest()


def _writable_dir(flag: str, path: str | Path) -> Path:
    """``path`` if it is a directory that can be written, or one that can be made."""
    p = Path(path)
    nearest = next(d for d in (p, *p.parents) if d.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK)):
        raise ConfigError(f"{flag} {path}: {nearest} is not a writable directory")
    return p


class _Run:
    """Collects emitted files and writes the manifest at the end."""

    def __init__(self, command: str, out_dir: Path):
        self.command = command
        self.out = _writable_dir("--out", out_dir)
        # tolerances of the rollouts; a run that fits adds its fits' as "fit"
        options = IntegratorOptions()
        self.tolerances: dict = {"rtol": options.rtol, "atol": options.atol}
        # the SHA-256 of each file read, by path, hashed as it is read
        self.configs: dict[str, str] = {}
        self.files: list[str] = []
        self.seeds: dict[str, int] = {}
        # per fit of an identify run: its solver's stop rule and counts
        self.fits: dict[str, dict] = {}
        self.t0 = time.perf_counter()

    def config(self, flag: str, path: str | Path | None, reader, default):
        """``reader(path)`` of the file named by ``flag``, or ``default``.

        The file is recorded for the manifest; a missing or malformed file,
        or a directory in its place, is a configuration error.
        """
        if path is None:
            return default
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"{flag} {p}: {'not a file' if p.exists() else 'file not found'}")
        try:
            value = reader(p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.configs[str(p)] = _sha256(p)
        return value

    def directory(self) -> Path:
        """The output directory, created on first use so a rejected run leaves none."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out

    def emit(self, name: str) -> Path:
        self.files.append(name)
        return self.directory() / name

    def finish(self) -> None:
        payload = {
            "tool": f"otbot {__version__}",
            "command": self.command,
            "config_sha256": self.configs,
            "seeds": self.seeds,
            "fits": self.fits,
            "integrator": {
                **self.tolerances,
                # the engine the rollouts (robot and shaft) ran on: the C loop
                # where it loaded, else Python
                "kernel": "python" if _ckernel.load() is None else "c",
            },
            # the formatter that wrote the run's CSV tables
            "csv": "python" if _ckernel.load_formatter() is None else "c",
            "wall_clock_s": round(time.perf_counter() - self.t0, 3),
            "files": sorted(self.files),
        }
        tmp = self.out / "manifest.json.tmp"
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, self.out / "manifest.json")


def _guess_check(params):
    """``read_kv`` check of a --guess file: every guess inside the fit bounds.

    ``deviation`` is checked through the step-3 guess it makes from the
    platform mass and inertia of ``params`` (a full run takes the inertia
    from step 1 instead, which moves only the inertia guess).
    """

    def check(key: str, value: float) -> str | None:
        if key == "deviation":
            guess = platform_guess(value, params.mp, params.Ip)
        else:
            guess = {key: value}
        for name, v in guess.items():
            lo, hi = (float(b[0]) for b in parameter_bounds([name]))
            if not lo <= v <= hi:
                bounds = f"the fit bounds [{lo!r}, {hi!r}]"
                if name == key:
                    return f"must lie within {bounds}"
                return f"must keep the step-3 guess within {bounds} ({name} = {v!r})"
        return None

    return check


def _read_plan(path: Path):
    """A plan file, its time grid checked as the plan reference needs it."""
    plan = trajectory_from_csv(path)
    plan_step(plan.times, f"{path}: plan")
    return plan


def _resolve_seed(flag_seed: int | None, cfg_seed: int = 0) -> int:
    """The noise seed: --seed, else the scenario's."""
    return cfg_seed if flag_seed is None else checked("--seed", flag_seed, natural)


def _scenario(run: _Run, name: str, params_file: str | None, modes, hint: str):
    """The scenario ``name`` in one of ``modes`` and its (``--params``) robot parameters."""
    cfg = load_scenario(name)
    run.configs[str(cfg.path)] = _sha256(cfg.path)
    if cfg.mode not in modes:
        raise ConfigError(f"scenario {cfg.name!r} is a {cfg.mode} scenario; {hint}")
    return cfg, run.config("--params", params_file, load_params, cfg.params)


def _write_sensor_csv(run: _Run, name: str, record) -> None:
    header = ["time", *SENSOR_CHANNELS[record.kind]]
    write_csv(run.emit(name), header, [record.times, record.values])


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    # flags are checked before _Run creates --out, so a bad call leaves nothing
    if args.scenario:
        for flag in ("torques", "duration", "rate"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} does not apply to --scenario, which sets its own")
    else:
        if args.torques is None or args.duration is None:
            raise ConfigError("simulate needs either --scenario or both --torques and --duration")
        if args.seed is not None:
            raise ConfigError("--seed does not apply to --torques, which samples no sensor")
        torques = float_list(args.torques, 3, "--torques")
        rate = 100.0 if args.rate is None else args.rate
        n = periods("--duration", args.duration, "--rate", rate)
    out = Path(args.out)
    run = _Run("simulate", out)

    if args.scenario:
        cfg, params = _scenario(
            run, args.scenario, args.params, ("shaft", "torques"), "use the control subcommand"
        )
        seed = _resolve_seed(args.seed, cfg.seed)
        run.seeds["scenario"] = seed
        n = periods(f"{cfg.path}: [scenario] horizon", cfg.horizon,
                    f"{cfg.path}: [sensors] rate", cfg.sensor_rate)
        grid = np.arange(n + 1) / cfg.sensor_rate
        shaft = cfg.mode == "shaft"
        if shaft:
            inertia, damping = (
                (params.Ia, params.bw) if cfg.axis == "wheel" else (params.Ip, params.bp)
            )
            controls = ControlSequence.constant([cfg.shaft_torque], cfg.horizon, cfg.shaft_rate)
            traj = simulate_shaft(inertia, damping, controls, output_times=grid)
            write_csv(
                run.emit("shaft.csv"),
                ["time", "angle", "rate", "torque"],
                [traj.times, traj.states, traj.controls],
            )
        else:
            controls = ControlSequence.constant(cfg.torques, cfg.horizon, cfg.torque_rate)
            traj = simulate_robot(params, cfg.initial_state(), controls, output_times=grid)
            trajectory_to_csv(traj, run.emit("trajectory.csv"))
        for kind, sigma in cfg.sensors.items():
            # a shaft's encoder reads its rate
            model = SensorModel(kind=kind, sigma=sigma, axis=1 if shaft else None)
            _write_sensor_csv(run, f"{kind}.csv", sample_sensors(traj, model, seed))
    else:
        params = run.config("--params", args.params, load_params, nominal_params())
        controls = ControlSequence.constant(torques, args.duration, rate)
        grid = np.arange(n + 1) / rate
        traj = simulate_robot(params, RobotState.rest(), controls, output_times=grid)
        trajectory_to_csv(traj, run.emit("trajectory.csv"))

    run.finish()
    return 0


# ---------------------------------------------------------------- identify


def _report_step(fh, step: str, fits, truth: dict[str, float]) -> None:
    """One ``[step<step>]`` section of the report: the losses and iterations
    of the step's fits summed, then each fitted parameter."""
    ests = [f.estimate for f in fits]
    fh.write(f"[step{step}]\n")
    fh.write(f"converged = {all(e.converged for e in ests)}\n")
    fh.write(f"iterations = {sum(e.iterations for e in ests)}\n")
    fh.write(f"loss = {format_float(sum(e.loss for e in ests))}\n")
    for f in fits:
        for name, value in zip(f.estimate.names, f.estimate.values):
            err = abs(value - truth[name])
            fh.write(
                f"{name}: guess {format_float(f.guess[name])} -> estimate {format_float(value)} "
                f"(true {format_float(truth[name])}, abs error {format_float(err)})\n"
            )
    fh.write("\n")


def _fit_data_csv(run: _Run, fit) -> None:
    exp = fit.experiment
    pred = predict_outputs(fit.estimate.as_dict(), fit.held, exp, IntegratorOptions())
    # each measured channel next to its prediction
    pairs = np.stack([exp.record.values, pred], axis=2).reshape(len(pred), -1)
    channels = SENSOR_CHANNELS[exp.record.kind]
    header = ["time", *(f"{kind}_{c}" for c in channels for kind in ("measured", "predicted"))]
    write_csv(run.emit(f"fit_{fit.row.record}.csv"), header, [exp.record.times, pairs])


def _cmd_identify(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
    checked("--sweep", args.sweep, natural)
    periods("--window", args.window, "the sample rate", SAMPLE_RATE)
    run = _Run("identify", Path(args.out))
    run.tolerances["fit"] = {"rtol": FIT_TOLERANCE.rtol, "atol": FIT_TOLERANCE.atol}
    params = run.config("--params", args.params, load_params, nominal_params())
    guesses = run.config("--guess", args.guess,
                         lambda p: read_kv(p, GUESS, _guess_check(params)), {})
    seed = _resolve_seed(args.seed)
    run.seeds["base"] = seed
    # a single step holds the other steps' parameters at the --params values
    steps = ("1", "2", "3") if args.step == "all" else (args.step,)
    fits = run_pipeline(params, seed, guesses, args.window, steps).values()
    cells = []
    if "3" in steps and args.sweep > 0:
        deviations = (0.05, 0.10, 0.15, 0.20, 0.25)
        cells = sensitivity_sweep(deviations, range(args.sweep), params, args.window)
    truth = {**params.as_dict(), "Ip0": params.Ip}

    by_step: dict[str, list] = {}
    for f in fits:
        by_step.setdefault(f.row.step, []).append(f)
        _fit_data_csv(run, f)
        run.fits[f.row.record] = {"stop": f.estimate.message, "jacobians": f.estimate.iterations,
                                  "residual_evals": f.estimate.evaluations}
    with open(run.emit("report.txt"), "w") as fh:
        for step, step_fits in by_step.items():
            _report_step(fh, step, step_fits, truth)
    with open(run.emit("estimates.csv"), "w") as fh:
        fh.write("step,name,guess,estimate,true,abs_error\n")
        for f in fits:
            for name in f.row.names:
                guess, value, true = f.guess[name], f.estimate[name], truth[name]
                fh.write(
                    f"step{f.row.step},{name},{format_float(guess)},{format_float(value)},"
                    f"{format_float(true)},{format_float(abs(value - true))}\n"
                )
    if cells:
        keys = list(cells[0])
        write_csv(run.emit("sweep.csv"), keys, [np.array([float(c[k]) for c in cells]) for k in keys])
    run.finish()
    return 0


# ---------------------------------------------------------------- control


# what a control run of a plan writes into --out
_PLAN_RUN_OUTPUTS = ("trajectory.csv", "errors.csv", "reference.csv", "torques.csv", "replay.csv",
                     "report.txt", "manifest.json")


def _write_tracking_outputs(run: _Run, result) -> None:
    traj = result.trajectory
    trajectory_to_csv(traj, run.emit("trajectory.csv"))
    t = traj.times
    write_csv(run.emit("errors.csv"), ["time", *_prefix_suffix(("ep", "ev"), XYA)],
              [t, result.e_p, result.e_v])
    write_csv(run.emit("reference.csv"), ["time", *_prefix_suffix(("pd", "vd", "ad"), XYA)],
              [t, result.p_ref, result.v_ref, result.a_ref])
    write_csv(run.emit("torques.csv"), ["time", *_prefix_suffix(("u", "utraj", "ucorr"), RLP)],
              [t, traj.controls, result.u_traj, result.u_corr])


def _write_report(run: _Run, entries: dict) -> None:
    """``report.txt``: one ``key = value`` line per entry."""
    with open(run.emit("report.txt"), "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in entries.items())


def _write_feasibility(run: _Run, report) -> None:
    write_csv(run.emit("feasibility.csv"), ["time", *_prefix_suffix(("lo", "hi", "nom"), RLP)],
              [report.times, report.lo, report.hi, report.nominal])


def _cmd_control(args) -> int:
    run = _Run("control", Path(args.out))
    name = args.scenario if args.scenario != "plan" else "plan-tracking"
    cfg, params = _scenario(
        run, name, args.params, ("controller", "plan"), "use the simulate subcommand"
    )
    if args.plan and cfg.mode != "plan":
        raise ConfigError(f"--plan needs a plan scenario; {cfg.name!r} is a {cfg.mode} scenario")
    gains_kv = run.config("--gains", args.gains,
                          lambda p: read_kv(p, ("t_stab",), lambda k, v: stabilisation_time(v)), {})
    t_stab = gains_kv.get("t_stab", cfg.t_stab)
    gains = tune_gains(t_stab)
    rate = cfg.loop_rate if args.rate is None else args.rate
    seed = _resolve_seed(args.seed, cfg.seed)
    run.seeds["scenario"] = seed
    plan = None
    if cfg.mode == "plan":
        # --plan, else the scenario's own plan file where it exists, else a
        # plan built into --out under that file's name: no output may take its path
        flag = "--plan" if args.plan else f"{cfg.path}: [plan] file"
        plan_file = Path(args.plan) if args.plan else cfg.plan_file
        built = not (args.plan or (plan_file is not None and plan_file.exists()))
        if plan_file is not None:
            path = (run.out / plan_file.name if built else plan_file).resolve()
            for name in _PLAN_RUN_OUTPUTS:
                if (run.out / name).resolve() == path:
                    shown = args.plan or plan_file.name
                    raise ConfigError(f"{flag} {shown}: the run writes its own {name} into --out")
        # a named plan is read now; one to build is built after the checks
        if not built:
            plan = run.config(flag, plan_file, _read_plan, None)
    else:
        ref = make_reference(cfg.reference)
    # the run lasts the scenario's horizon, or that of a named plan,
    # a whole number of control periods
    run_length = ((f"{cfg.path}: [scenario] horizon", cfg.horizon) if plan is None
                  else (f"{plan_file}: plan", float(plan.times[-1] - plan.times[0])))
    periods(*run_length, "--rate" if args.rate is not None else f"{cfg.path}: [control] rate", rate)
    if cfg.mode == "plan" and plan is None:
        plan_file = ensure_plan(cfg, run.directory())
        # an output of the run, and a file it reads (so its hash is recorded)
        plan = run.config("--out", run.emit(plan_file.name), _read_plan, None)

    report = {"scenario": cfg.name, "kp": f"{gains.kp[0]:.3f}", "kv": f"{gains.kv[0]:.3f}",
              "poles": f"{format_float(gains.poles[0][0])}, {format_float(gains.poles[0][1])}"}
    if cfg.mode == "controller":
        x0 = cfg.initial_state(ref)
        result = closed_loop_simulate(
            params, x0, ref, gains, control_rate=rate, disturbances=cfg.disturbances,
            t_end=cfg.horizon,
        )
        _write_tracking_outputs(run, result)
        feas = torque_feasibility(params, ref, gains, t_end=cfg.horizon)
        _write_feasibility(run, feas)
        ep = np.linalg.norm(result.e_p[:, :2], axis=1)
        report.update(peak_position_error=format_float(ep.max()),
                      peak_alpha_error=format_float(np.abs(result.e_p[:, 2]).max()),
                      feasible=feas.ok, feasibility_margin=format_float(feas.worst_margin))
    else:
        result = track_planned_trajectory(params, plan, gains, control_rate=rate)
        _write_tracking_outputs(run, result)
        replay = open_loop_replay(params, plan)
        trajectory_to_csv(replay, run.emit("replay.csv"))
        drift = np.linalg.norm(replay.states[:, 0:2] - plan.states[:, 0:2], axis=1)
        ep = np.linalg.norm(result.e_p[:, :2], axis=1)
        report.update(open_loop_drift_max=format_float(drift.max()),
                      open_loop_drift_final=format_float(drift[-1]),
                      closed_loop_position_error_max=format_float(ep.max()))
    # written once every computation has returned, so a failed run leaves no report
    _write_report(run, report)
    run.finish()
    return 0


def _cmd_check_torques(args) -> int:
    checked("--limit", args.limit, non_negative)
    out = Path(args.out)
    run = _Run("check-torques", out)
    cfg, params = _scenario(
        run, args.scenario, args.params, ("controller",), "check-torques needs a controller scenario"
    )
    gains = tune_gains(cfg.t_stab)
    bounds = TorqueBounds.symmetric(torque=args.limit)
    ref = make_reference(cfg.reference)
    report = torque_feasibility(params, ref, gains, bounds, t_end=cfg.horizon)
    _write_feasibility(run, report)
    _write_report(run, {"scenario": cfg.name, "torque_limit": format_float(args.limit),
                        "feasible": report.ok, "worst_margin": format_float(report.worst_margin),
                        "note": report.note})
    run.finish()
    print("feasible" if report.ok else "infeasible")
    return 0


def _cmd_scenarios(args) -> int:
    target = args.export and _writable_dir("--export", args.export)
    print(scenario_listing())
    if target:
        target.mkdir(parents=True, exist_ok=True)
        for path in sorted(_bundle_dir().glob("*.cfg")):
            shutil.copy(path, target / path.name)
        print(f"exported scenario files to {target}")
    return 0


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otbot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="open-loop rollout (scenario or explicit torques)")
    p_sim.add_argument("--scenario", help="bundled scenario name or scenario file path")
    p_sim.add_argument("--params", help="robot parameter file")
    p_sim.add_argument("--torques", help="three comma-separated motor torques")
    p_sim.add_argument("--duration", type=float, help="run length in seconds")
    p_sim.add_argument("--rate", type=float, help="control grid rate [Hz] of --torques (default 100)")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_id = sub.add_parser("identify", help="run the parameter-identification pipeline")
    p_id.add_argument("--step", choices=("1", "2", "3", "all"), default="all")
    p_id.add_argument("--params", help="true plant parameter file (defaults to nominal)")
    p_id.add_argument("--guess", help="initial-guess overrides, key = value")
    p_id.add_argument("--seed", type=int, default=None)
    p_id.add_argument("--jobs", type=int, default=1, help="accepted for old command lines; has no effect")
    p_id.add_argument("--sweep", type=int, default=2,
                      help="seeds for the step-3 sensitivity sweep (0 disables)")
    p_id.add_argument("--window", type=float, default=1.0,
                      help="step-3 and sweep record length in seconds")
    p_id.add_argument("--out", required=True)
    p_id.set_defaults(func=_cmd_identify)

    p_ctl = sub.add_parser("control", help="closed-loop tracking runs")
    p_ctl.add_argument("--scenario", required=True,
                       help="corridor | plan | figure8, or a scenario file path")
    p_ctl.add_argument("--params", help="robot parameter file override")
    p_ctl.add_argument("--gains", help="gain file (t_stab = seconds)")
    p_ctl.add_argument("--plan", help="planned trajectory CSV (plan scenario)")
    p_ctl.add_argument("--rate", type=float, default=None, help="control rate override [Hz]")
    p_ctl.add_argument("--seed", type=int, default=None)
    p_ctl.add_argument("--out", required=True)
    p_ctl.set_defaults(func=_cmd_control)

    p_chk = sub.add_parser("check-torques", help="interval feasibility of tracking torques")
    p_chk.add_argument("--scenario", required=True)
    p_chk.add_argument("--params", help="robot parameter file override")
    p_chk.add_argument("--limit", type=float, default=50.0, help="torque limit [N m]")
    p_chk.add_argument("--out", required=True)
    p_chk.set_defaults(func=_cmd_check_torques)

    p_lst = sub.add_parser("scenarios", help="list bundled scenarios")
    p_lst.add_argument("--export", help="copy bundled scenario files to a directory")
    p_lst.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        # a numerical failure: a rollout that cannot go on, or a model that
        # divides by zero or overflows on the parameters it was given
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
