"""Checks of one operation's artifacts, recomputed here from the inputs.

Each ``check_*`` function takes the ``--out`` directory of one operation and
returns a list of failure messages (empty when every check passes). Nothing
is compared against stored copies of earlier output: every expected value
is recomputed from the plant parameters this benchmark wrote, the gains the
run printed, or a closed form.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The plant every operation runs on, written to the --params file. These
# are the catalogue values of the unloaded robot.
PLANT = {
    "l1": 0.25, "l2": 0.2, "r": 0.1,
    "xB": -0.13, "yB": 0.0, "xF": 0.0, "yF": 0.0,
    "mc": 109.14, "mp": 21.95, "Ic": 1.3, "Ip": 2.22,
    "Ia": 0.0104, "bw": 0.18, "bp": 0.24,
}

# Experiment design of the identification steps (otbot.identify): held
# torque on each shaft, the chassis torques, record lengths, sensor noise.
SHAFT_TORQUE = 6.0
CHASSIS_TORQUES = (6.0, -10.0, 6.0)
SAMPLE_RATE = 100.0
ENCODER_SIGMA = 0.01
IMU_SIGMA = 13.73e-3
# Estimates must lie within this many standard errors of the truth. Steps 2
# and 3 hold the previous steps' estimates fixed and inherit their errors,
# so the band is wider than a pure-noise 3 sigma (step 2 at seed 0: 4.2).
BAND_SIGMAS = 6.0

# figure8.cfg: pulse3 = 11, 12 is the last force pulse; the control
# subcommand checks torques against the default 50 N m limit.
FIGURE8_LAST_PULSE_END = 12.0
TORQUE_LIMIT = 50.0

CONSTRAINT_TOL = 1e-6
ERROR_ODE_TOL = 0.01
LOSS_RTOL = 1e-6


def write_plant(path: Path) -> None:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in PLANT.items()))


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns under {len(header)} names")
    return {name: data[:, i] for i, name in enumerate(header)}


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(np.asarray(b))))


# ------------------------------------------------------------ track-figure8


def check_figure8(out: Path) -> list[str]:
    fails = []
    tr = read_csv(out / "trajectory.csv")
    er = read_csv(out / "errors.csv")
    rf = read_csv(out / "reference.csv")
    tq = read_csv(out / "torques.csv")
    fe = read_csv(out / "feasibility.csv")
    report = read_kv(out / "report.txt")
    t = tr["t"]
    for name, cols in (("errors", er), ("reference", rf), ("torques", tq)):
        if not np.array_equal(cols["time"], t):
            fails.append(f"{name}.csv is not on the trajectory time grid")
    if fails:
        return fails

    # rolling without slipping: the pivot moves as the axle midpoint plus
    # l1 times the heading rate, the heading turns with the wheel difference
    l1, l2, r = PLANT["l1"], PLANT["l2"], PLANT["r"]
    k = r / (2.0 * l2)
    th = tr["alpha"] - tr["phi_p"]
    dth = tr["dalpha"] - tr["dphi_p"]
    v = 0.5 * r * (tr["dphi_r"] + tr["dphi_l"])
    jdq = np.column_stack([
        tr["dx"] - v * np.cos(th) + l1 * np.sin(th) * dth,
        tr["dy"] - v * np.sin(th) - l1 * np.cos(th) * dth,
        dth - k * (tr["dphi_r"] - tr["dphi_l"]),
    ])
    worst = float(np.abs(jdq).max())
    if worst > CONSTRAINT_TOL:
        fails.append(f"|J dq| reaches {worst:.3e} > {CONSTRAINT_TOL}")
    combo = th - k * (tr["phi_r"] - tr["phi_l"])
    drift = float(np.abs(combo - combo[0]).max())
    if drift > CONSTRAINT_TOL:
        fails.append(f"holonomic residual reaches {drift:.3e} > {CONSTRAINT_TOL}")

    # u = u_traj + u_corr, applied as the trajectory's torque
    for a in ("r", "l", "p"):
        if not _close(tq[f"u_{a}"], tq[f"utraj_{a}"] + tq[f"ucorr_{a}"], 1e-12, 1e-12):
            fails.append(f"u_{a} != utraj_{a} + ucorr_{a}")
        if not np.array_equal(tq[f"u_{a}"], tr[f"tau_{a}"]):
            fails.append(f"u_{a} in torques.csv differs from tau_{a} in trajectory.csv")

    # error = state - reference
    for a, pos, vel in (("x", "x", "dx"), ("y", "y", "dy"), ("alpha", "alpha", "dalpha")):
        if not _close(er[f"ep_{a}"], tr[pos] - rf[f"pd_{a}"], 1e-12, 1e-12):
            fails.append(f"ep_{a} != {pos} - pd_{a}")
        if not _close(er[f"ev_{a}"], tr[vel] - rf[f"vd_{a}"], 1e-12, 1e-12):
            fails.append(f"ev_{a} != {vel} - vd_{a}")

    # After the last pulse each error obeys e'' + kv e' + kp e = 0. Over one
    # held control period the mean e'' is the forward difference of e'; the
    # periods where the reference acceleration jumps (line/arc junctions)
    # are left out. The residual is judged against the largest feedback
    # term of the two translational axes; the alpha error stays near 1e-6
    # rad, where the zero-order hold's own coupling dominates it.
    kp, kv = float(report["kp"]), float(report["kv"])
    dt = float(t[1] - t[0])
    ad = np.column_stack([rf["ad_x"], rf["ad_y"], rf["ad_alpha"]])
    quiet = (t[:-1] >= FIGURE8_LAST_PULSE_END) & (np.abs(np.diff(ad, axis=0)).max(axis=1) < 1e-2)
    scale = 0.0
    residuals = {}
    for a in ("x", "y", "alpha"):
        e, ev = er[f"ep_{a}"], er[f"ev_{a}"]
        res = np.diff(ev) / dt + kv * ev[:-1] + kp * e[:-1]
        residuals[a] = float(np.abs(res[quiet]).max())
        if a != "alpha":
            scale = max(scale, float((kp * np.abs(e[:-1]) + kv * np.abs(ev[:-1]))[quiet].max()))
    for a, worst in residuals.items():
        if not worst <= ERROR_ODE_TOL * scale:
            fails.append(
                f"after t = {FIGURE8_LAST_PULSE_END} the {a} error leaves e'' + kv e' + kp e = 0: "
                f"residual {worst:.3e} > {ERROR_ODE_TOL} x {scale:.3e}"
            )

    # feasibility hull: lo <= nominal <= hi, margin recomputed from the CSV
    lo = np.column_stack([fe[f"lo_{a}"] for a in ("r", "l", "p")])
    hi = np.column_stack([fe[f"hi_{a}"] for a in ("r", "l", "p")])
    nom = np.column_stack([fe[f"nom_{a}"] for a in ("r", "l", "p")])
    if not (np.all(lo <= nom) and np.all(nom <= hi)):
        fails.append("feasibility.csv has a nominal torque outside [lo, hi]")
    margin = float(np.minimum(TORQUE_LIMIT - hi, lo + TORQUE_LIMIT).min())
    reported = float(report["feasibility_margin"])
    if not _close(reported, margin, 1e-12, 1e-12):
        fails.append(f"feasibility_margin {reported!r} != {margin!r} recomputed from feasibility.csv")
    if (report["feasible"] == "True") != (margin >= 0.0):
        fails.append(f"feasible = {report['feasible']} contradicts margin {margin!r}")
    return fails


# ------------------------------------------------------------ identification


def shaft_rate(t: np.ndarray, inertia: float, damping: float) -> np.ndarray:
    """Spin-up of a shaft from rest under the held torque, in closed form."""
    return (SHAFT_TORQUE / damping) * (1.0 - np.exp(-damping * t / inertia))


def _shaft_jacobian(t, inertia, damping) -> np.ndarray:
    decay = np.exp(-damping * t / inertia)
    u = SHAFT_TORQUE
    return np.column_stack([
        -(u * t / inertia**2) * decay,
        -(u / damping**2) * (1.0 - decay) + (u / damping) * decay * t / inertia,
    ])


def standard_errors(jac: np.ndarray, sigma: float) -> np.ndarray:
    """sigma * sqrt(diag((J^T J)^-1)): the noise-only spread of an estimate."""
    return sigma * np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))


def _read_estimates(out: Path) -> dict[str, dict[str, float]]:
    rows: dict[str, dict[str, float]] = {}
    with open(out / "estimates.csv") as fh:
        if fh.readline().strip() != "step,name,guess,estimate,true,abs_error":
            raise ValueError("estimates.csv: unexpected header")
        for line in fh:
            step, name, _, value, _, _ = line.strip().split(",")
            rows.setdefault(step, {})[name] = float(value)
    return rows


def _read_losses(out: Path) -> dict[str, float]:
    losses, step = {}, None
    for line in (out / "report.txt").read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            step = line[1:-1]
        elif line.startswith("loss = "):
            losses[step] = float(line.split("=", 1)[1])
    return losses


def _check_band(fails, label, names, estimate, truth, se) -> None:
    for name, e, p, s in zip(names, estimate, truth, se):
        if not abs(e - p) <= BAND_SIGMAS * s:
            fails.append(
                f"{label}: {name} = {e!r} is {abs(e - p) / s:.1f} standard errors "
                f"({s:.3e}) from the true {p!r}"
            )


def _check_step1(out: Path, est: dict[str, float], loss: float) -> list[str]:
    """Both shaft fits: closed-form prediction, loss, truth loss, bands."""
    fails = []
    total_cf = 0.0
    for fname, (ni, nb), (ti, tb) in (
        ("fit_step1_wheel.csv", ("Ia", "bw"), (PLANT["Ia"], PLANT["bw"])),
        ("fit_step1_platform.csv", ("Ip0", "bp"), (PLANT["Ip"], PLANT["bp"])),
    ):
        d = read_csv(out / fname)
        t, meas, pred = d["time"], d["measured_rate"], d["predicted_rate"]
        cf = shaft_rate(t, est[ni], est[nb])
        if not _close(pred, cf, 0.0, 1e-7 * float(np.abs(cf).max())):
            fails.append(f"{fname}: predicted_rate differs from (u/b)(1 - exp(-b t/I)) "
                         f"by {float(np.abs(pred - cf).max()):.3e}")
        loss_cf = float(np.sum((meas - cf) ** 2))
        loss_true = float(np.sum((meas - shaft_rate(t, ti, tb)) ** 2))
        if not loss_cf <= loss_true:
            fails.append(f"{fname}: loss {loss_cf!r} at the estimate exceeds {loss_true!r} at the truth")
        total_cf += loss_cf
        se = standard_errors(_shaft_jacobian(t, ti, tb), ENCODER_SIGMA)
        _check_band(fails, fname, (ni, nb), (est[ni], est[nb]), (ti, tb), se)
    if not _close(loss, total_cf, LOSS_RTOL):
        fails.append(f"step1: reported loss {loss!r} != closed-form loss {total_cf!r}")
    return fails


def _imu_prediction(params: dict[str, float], duration: float) -> np.ndarray:
    """Noise-free inertial-unit record of the chassis experiment.

    The rollout uses otbot's simulator at the fits' polish tolerance; the
    sensor transform (pivot acceleration in the platform frame plus the
    platform rate) is recomputed here.
    """
    from otbot.dynamics import RobotState
    from otbot.integrator import IntegratorOptions
    from otbot.params import RobotParams
    from otbot.simulate import ControlSequence, simulate_robot

    n = int(round(duration * SAMPLE_RATE))
    traj = simulate_robot(
        RobotParams(**params),
        RobotState(q=np.zeros(6), dq=np.zeros(6)),
        ControlSequence.constant(CHASSIS_TORQUES, duration, SAMPLE_RATE),
        options=IntegratorOptions(rtol=1e-10, atol=1e-13),
        output_times=np.arange(n + 1) / SAMPLE_RATE,
    )
    alpha = traj.states[:, 2]
    ddx, ddy = traj.derivs[:, 6], traj.derivs[:, 7]
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.column_stack([ca * ddx + sa * ddy, -sa * ddx + ca * ddy, traj.states[:, 8]])


def _check_chassis_step(out, label, fname, fixed, names, estimate, loss, duration) -> list[str]:
    fails = []
    d = read_csv(out / fname)
    chans = ("accel_x", "accel_y", "angular_rate")
    meas = np.column_stack([d[f"measured_{c}"] for c in chans])
    pred = np.column_stack([d[f"predicted_{c}"] for c in chans])
    loss_csv = float(np.sum((meas - pred) ** 2))
    if not _close(loss, loss_csv, LOSS_RTOL):
        fails.append(f"{label}: reported loss {loss!r} != {loss_csv!r} summed from {fname}")

    truth = np.array([PLANT[n] for n in names])
    base = _imu_prediction({**fixed, **dict(zip(names, truth))}, duration)
    loss_true = float(np.sum((meas - base) ** 2))
    if not loss <= loss_true * (1.0 + 1e-9):
        fails.append(f"{label}: loss {loss!r} exceeds {loss_true!r} at the true {', '.join(names)}")

    cols = []
    for j, name in enumerate(names):
        h = 1e-6 * max(abs(truth[j]), 1.0)
        bumped = {**fixed, **dict(zip(names, truth)), name: truth[j] + h}
        cols.append(((_imu_prediction(bumped, duration) - base) / h).ravel())
    se = standard_errors(np.column_stack(cols), IMU_SIGMA)
    _check_band(fails, label, names, estimate, truth, se)
    return fails


def check_identify_chain(out: Path) -> list[str]:
    """``identify --step all``: losses, truth losses and bands of all steps.

    Step 2 holds the step-1 shaft estimates and the unloaded platform fixed;
    step 3 adds the step-2 chassis estimates (as ``otbot.identify`` does).
    """
    est = _read_estimates(out)
    losses = _read_losses(out)
    if set(est) != {"step1", "step2", "step3"} or set(losses) != set(est):
        return [f"report has steps {sorted(losses)}, estimates.csv {sorted(est)}"]
    s1, s2, s3 = est["step1"], est["step2"], est["step3"]
    fails = _check_step1(out, s1, losses["step1"])
    fixed2 = {**PLANT, "Ia": s1["Ia"], "bw": s1["bw"], "bp": s1["bp"], "Ip": s1["Ip0"], "xF": 0.0, "yF": 0.0}
    names2 = ("mc", "Ic", "xB", "yB")
    fails += _check_chassis_step(out, "step2", "fit_step2.csv", fixed2, names2,
                                 [s2[n] for n in names2], losses["step2"], 3.0)
    fixed3 = {**fixed2, **s2}
    names3 = ("mp", "Ip", "xF", "yF")
    fails += _check_chassis_step(out, "step3", "fit_step3.csv", fixed3, names3,
                                 [s3[n] for n in names3], losses["step3"], 1.0)
    return fails


def check_files_match(a: Path, b: Path) -> list[str]:
    """Two runs of one operation wrote the same bytes (manifest aside)."""
    names_a = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    names_b = sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
    if names_a != names_b:
        return [f"traced run wrote {names_b}, untraced {names_a}"]
    return [f"{n} differs between the traced and the untraced run"
            for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]


def count_bytes(out: Path) -> int:
    """Bytes of the artifacts; the manifest's wall-clock digits vary run to run."""
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")

