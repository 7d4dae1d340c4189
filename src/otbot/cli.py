"""Command-line front end: simulate / identify / control / check-torques.

Every run writes its CSV artifacts plus a manifest.json into --out. Exit
codes: 0 success, 2 configuration problems (bad files, bad flags), 1
numerical failures at run time. Errors print as a single line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    closed_loop_blocks,
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
    build_plan,
    checked,
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
    TRAJECTORY_COLUMNS,
    ControlSequence,
    format_float,
    simulate_robot,
    simulate_shaft,
    trajectory_from_csv,
    trajectory_to_csv,
    write_csv,
    write_tables,
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
    """Collects emitted files and writes the manifest at the end of the run it
    wraps (``with``). Outputs are written into a hidden staging directory in
    --out, moved into place once all are written, the manifest last; a run
    that fails removes them, and --out where it made it, so --out is left as
    it was."""

    def __init__(self, command: str, out_dir: Path):
        self.command = command
        self.out = _writable_dir("--out", out_dir)
        # tolerances of the rollouts; a run that fits adds its fits' as "fit"
        options = IntegratorOptions()
        self.tolerances: dict = {"rtol": options.rtol, "atol": options.atol}
        # the SHA-256 of each file read, by path, hashed as it is read
        self.configs: dict[str, str] = {}
        # each file read, resolved, and how the run was told of it: no output may replace one
        self.reads: dict[Path, str] = {}
        self.files: list[str] = []
        self.seeds: dict[str, int] = {}
        # per fit of an identify run: its solver's stop rule and counts
        self.fits: dict[str, dict] = {}
        self.noise = False  # whether the run drew sensor noise
        self.stage: Path | None = None
        self.made: list[Path] = []  # --out and the parents this run made, innermost first
        self.t0 = time.perf_counter()

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if exc is None:
                return self.finish()
        except BaseException as err:
            exc = err
            raise
        finally:
            if self.stage is not None:
                shutil.rmtree(self.stage, ignore_errors=True)
            if exc is not None:
                # a text write names no file: it is the last one emitted
                staged = isinstance(exc, OSError) and self.stage and Path(exc.filename or self.stage / self.files[-1])
                if staged and staged.parent == self.stage:
                    exc.filename = str(self.out / staged.name)  # the output, not its staged copy
                for made in self.made:
                    with contextlib.suppress(OSError):
                        made.rmdir()

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
        self.read(f"{flag} {path}", p)
        return value

    def read(self, source: str, path: Path) -> None:
        """Records ``path``, named by ``source`` (a flag and its value), as read by the run."""
        self.configs[str(path)] = _sha256(path)
        self.reads[path.resolve()] = source

    def emit(self, name: str) -> Path:
        """The staged path of output ``name``; --out is made on the first, so a rejected run leaves none."""
        # no output may replace a file the run read
        if source := self.reads.get((self.out / name).resolve()):
            raise ConfigError(f"{source}: the run writes its own {name} into --out")
        if self.stage is None:
            self.made = [d for d in (self.out, *self.out.parents) if not d.exists()]
            stage = self.out / f".otbot-{os.getpid()}"
            stage.mkdir(parents=True, exist_ok=True)
            self.stage = stage
        self.files.append(name)
        return self.stage / name

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
            # the generator of the run's sensor noise, in a run that drew some
            **({"noise": "numpy" if _ckernel.load_noise() is None else "c"} if self.noise else {}),
            "wall_clock_s": round(time.perf_counter() - self.t0, 3),
            "files": sorted(self.files),
        }
        self.emit("manifest.json").write_text(json.dumps(payload, indent=2) + "\n")
        # each old file is kept aside until all are in place; the renames made
        # are undone in reverse where one fails
        done = []
        try:
            for name in self.files:
                final = self.out / name
                moves = [(self.stage / name, final)]
                if os.path.lexists(final) and not final.is_dir():
                    moves.insert(0, (final, self.stage / f"{name}~"))
                for src, dst in moves:
                    os.replace(src, dst)
                    done.append((src, dst))
        except OSError:
            for src, dst in reversed(done):
                with contextlib.suppress(OSError):
                    os.replace(dst, src)
            raise


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
    run.read(f"--scenario {name}", cfg.path)
    if cfg.params_file is not None:
        run.read(f"{cfg.path}: [params] file {cfg.params_file}", cfg.params_file)
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
        grid = np.arange(periods("--duration", args.duration, "--rate", rate) + 1) / rate
        duration, state0 = args.duration, RobotState.rest()
    with _Run("simulate", Path(args.out)) as run:
        sensors, shaft = {}, False
        if args.scenario:
            cfg, params = _scenario(run, args.scenario, args.params, ("shaft", "torques"),
                                    "use the control subcommand")
            seed = run.seeds["scenario"] = _resolve_seed(args.seed, cfg.seed)
            n = periods(f"{cfg.path}: [scenario] horizon", cfg.horizon,
                        f"{cfg.path}: [sensors] rate", cfg.sensor_rate)
            grid = np.arange(n + 1) / cfg.sensor_rate
            sensors, shaft = cfg.sensors, cfg.mode == "shaft"
            if not shaft:
                torques, duration, rate, state0 = cfg.torques, cfg.horizon, cfg.torque_rate, cfg.initial_state()
        else:
            params = run.config("--params", args.params, load_params, nominal_params())
        if shaft:
            inertia, damping = (params.Ia, params.bw) if cfg.axis == "wheel" else (params.Ip, params.bp)
            controls = ControlSequence.constant([cfg.shaft_torque], cfg.horizon, cfg.shaft_rate)
            traj = simulate_shaft(inertia, damping, controls, output_times=grid)
            write_csv(run.emit("shaft.csv"), ["time", "angle", "rate", "torque"],
                      [traj.times, traj.states, traj.controls])
        else:
            traj = simulate_robot(params, state0, ControlSequence.constant(torques, duration, rate),
                                  output_times=grid)
            trajectory_to_csv(traj, run.emit("trajectory.csv"))
        for kind, sigma in sensors.items():
            # a shaft's encoder reads its rate
            model = SensorModel(kind=kind, sigma=sigma, axis=1 if shaft else None)
            run.noise |= sigma > 0.0
            _write_sensor_csv(run, f"{kind}.csv", sample_sensors(traj, model, seed))
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


def _fit_data_csv(run: _Run, fit, pred) -> None:
    """``fit_<record>.csv``: the fit's record beside ``pred``, its prediction at the estimate."""
    exp = fit.experiment
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
    with _Run("identify", Path(args.out)) as run:
        run.tolerances["fit"] = {"rtol": FIT_TOLERANCE.rtol, "atol": FIT_TOLERANCE.atol}
        params = run.config("--params", args.params, load_params, nominal_params())
        guesses = run.config("--guess", args.guess,
                             lambda p: read_kv(p, GUESS, _guess_check(params)), {})
        seed = run.seeds["base"] = _resolve_seed(args.seed)
        run.noise = True
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
            _fit_data_csv(run, f, predict_outputs(f.estimate.as_dict(), f.held, f.experiment, IntegratorOptions()))
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
    return 0


# ---------------------------------------------------------------- control


def _write_tracking_outputs(run: _Run, results) -> tuple[float, float]:
    """The four tracking tables, written a block at a time as ``results``
    (one :class:`~otbot.control.TrackingResult` per block of the run) come:
    the largest position and alpha errors."""
    peaks = np.full(2, -np.inf)

    def columns(result):
        nonlocal peaks
        traj, t, e_p = result.trajectory, result.trajectory.times, result.e_p
        peaks = np.maximum(peaks, (np.linalg.norm(e_p[:, :2], axis=1).max(), np.abs(e_p[:, 2]).max()))
        return ([t, traj.states, traj.controls], [t, e_p, result.e_v],
                [t, result.p_ref, result.v_ref, result.a_ref], [t, traj.controls, result.u_traj, result.u_corr])

    # CRLF, the line end of the csv module's default dialect trajectories have used
    write_tables([(run.emit("trajectory.csv"), TRAJECTORY_COLUMNS, "\r\n"),
                  (run.emit("errors.csv"), ["time", *_prefix_suffix(("ep", "ev"), XYA)], "\n"),
                  (run.emit("reference.csv"), ["time", *_prefix_suffix(("pd", "vd", "ad"), XYA)], "\n"),
                  (run.emit("torques.csv"), ["time", *_prefix_suffix(("u", "utraj", "ucorr"), RLP)], "\n")],
                 map(columns, results))
    return float(peaks[0]), float(peaks[1])


def _write_report(run: _Run, entries: dict) -> None:
    """``report.txt``: one ``key = value`` line per entry."""
    with open(run.emit("report.txt"), "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in entries.items())


def _write_feasibility(run: _Run, report) -> None:
    write_csv(run.emit("feasibility.csv"), ["time", *_prefix_suffix(("lo", "hi", "nom"), RLP)],
              [report.times, report.lo, report.hi, report.nominal])


def _cmd_control(args) -> int:
    with _Run("control", Path(args.out)) as run:
        name = args.scenario if args.scenario != "plan" else "plan-tracking"
        cfg, params = _scenario(
            run, name, args.params, ("controller", "plan"), "use the simulate subcommand"
        )
        if args.plan and cfg.mode != "plan":
            raise ConfigError(f"--plan needs a plan scenario; {cfg.name!r} is a {cfg.mode} scenario")
        gains_kv = run.config("--gains", args.gains,
                              lambda p: read_kv(p, ("t_stab",), lambda k, v: stabilisation_time(v)), {})
        gains = tune_gains(gains_kv.get("t_stab", cfg.t_stab))
        rate = cfg.loop_rate if args.rate is None else args.rate
        run.seeds["scenario"] = _resolve_seed(args.seed, cfg.seed)
        plan = None
        if args.plan:
            plan = run.config("--plan", args.plan, _read_plan, None)
        elif cfg.mode == "controller":
            ref = make_reference(cfg.reference)
        # the run lasts the scenario's horizon, or that of a --plan file,
        # a whole number of control periods
        run_length = ((f"{cfg.path}: [scenario] horizon", cfg.horizon) if plan is None
                      else (f"{args.plan}: plan", float(plan.times[-1] - plan.times[0])))
        periods(*run_length, "--rate" if args.rate is not None else f"{cfg.path}: [control] rate", rate)
        if cfg.mode == "plan" and plan is None:
            plan = build_plan(cfg.params, horizon=cfg.horizon, rate=cfg.plan_rate,
                              mass_error=cfg.plan_mass_error)

        report = {"scenario": cfg.name, "kp": f"{gains.kp[0]:.3f}", "kv": f"{gains.kv[0]:.3f}",
                  "poles": f"{format_float(gains.poles[0][0])}, {format_float(gains.poles[0][1])}"}
        if cfg.mode == "controller":
            # the lap is written a block at a time as it runs, then its feasibility pass
            blocks = closed_loop_blocks(params, cfg.initial_state(ref), ref, gains, control_rate=rate,
                                        disturbances=cfg.disturbances, t_end=cfg.horizon)
            peak_position, peak_alpha = _write_tracking_outputs(run, blocks)
            feas = torque_feasibility(params, ref, gains, t_end=cfg.horizon)
            _write_feasibility(run, feas)
            report.update(peak_position_error=format_float(peak_position),
                          peak_alpha_error=format_float(peak_alpha),
                          feasible=feas.ok, feasibility_margin=format_float(feas.worst_margin))
        else:
            result = track_planned_trajectory(params, plan, gains, control_rate=rate)
            replay = open_loop_replay(params, plan)
            peak_position, _ = _write_tracking_outputs(run, [result])
            trajectory_to_csv(replay, run.emit("replay.csv"))
            if not args.plan:
                path = run.emit("plan.csv")
                trajectory_to_csv(plan, path)
                # hashed as an input is, so the manifest states the plan tracked
                run.configs[str(run.out / "plan.csv")] = _sha256(path)
            drift = np.linalg.norm(replay.states[:, 0:2] - plan.states[:, 0:2], axis=1)
            report.update(open_loop_drift_max=format_float(drift.max()),
                          open_loop_drift_final=format_float(drift[-1]),
                          closed_loop_position_error_max=format_float(peak_position))
        _write_report(run, report)
    return 0


def _cmd_check_torques(args) -> int:
    checked("--limit", args.limit, non_negative)
    with _Run("check-torques", Path(args.out)) as run:
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
    print("feasible" if report.ok else "infeasible")
    return 0


def _cmd_scenarios(args) -> int:
    target = args.export and _writable_dir("--export", args.export)
    if target and any((target / p.name).resolve() == p.resolve() for p in _bundle_dir().glob("*.cfg")):
        raise ConfigError(f"--export {args.export}: a bundled scenario file would be copied onto itself")
    print(scenario_listing())
    if target:
        target.mkdir(parents=True, exist_ok=True)
        for path in sorted(_bundle_dir().glob("*.cfg")):
            shutil.copy(path, target / path.name)
        print(f"exported scenario files to {target}")
    return 0


# ---------------------------------------------------------------- entry


@functools.cache  # once per process
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

    p_ctl = sub.add_parser("control", help="closed-loop tracking runs")
    p_ctl.add_argument("--scenario", required=True,
                       help="corridor | plan | figure8, or a scenario file path")
    p_ctl.add_argument("--params", help="robot parameter file override")
    p_ctl.add_argument("--gains", help="gain file (t_stab = seconds)")
    p_ctl.add_argument("--plan", help="planned trajectory CSV (plan scenario)")
    p_ctl.add_argument("--rate", type=float, default=None, help="control rate override [Hz]")
    p_ctl.add_argument("--seed", type=int, default=None)
    p_ctl.add_argument("--out", required=True)

    p_chk = sub.add_parser("check-torques", help="interval feasibility of tracking torques")
    p_chk.add_argument("--scenario", required=True)
    p_chk.add_argument("--params", help="robot parameter file override")
    p_chk.add_argument("--limit", type=float, default=50.0, help="torque limit [N m]")
    p_chk.add_argument("--out", required=True)

    p_lst = sub.add_parser("scenarios", help="list bundled scenarios")
    p_lst.add_argument("--export", help="copy bundled scenario files to a directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so that a command replaced since runs
    command = globals()[f"_cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a write that failed, after which --out is as it was
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        # a numerical failure: a rollout that cannot go on, or a model that
        # divides by zero or overflows on the parameters it was given
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
