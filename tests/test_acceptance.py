"""Acceptance suite: one test per shipped contract criterion.

Every test prints a single `criterion NN PASS ...` line carrying its measured
margins (run `pytest tests/test_acceptance.py -v -s` to see them all) and
asserts the advertised tolerances plus, where one is stated, the runtime
budget. Long simulations are shared between criteria through module fixtures.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import random_admissible, random_q
from otbot.control import (
    closed_loop_simulate,
    open_loop_replay,
    torque_feasibility,
    track_planned_trajectory,
    transient_metrics,
    tune_gains,
)
from otbot.dynamics import (
    forward_dynamics,
    forward_dynamics_conventional,
    input_matrix,
    inverse_dynamics,
    inverse_dynamics_conventional,
)
from otbot.identify import FITS, GUESS, experiment, fit, platform_guess, sensitivity_sweep
from otbot.model import (
    constraint_jacobian,
    coriolis_matrix,
    fik_matrix,
    holonomic_residual,
    lambda_delta,
    mass_matrix,
)
from otbot.scenarios import build_plan, load_scenario, make_reference
from otbot.simulate import ControlSequence, simulate_shaft


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corridor_run():
    cfg = load_scenario("corridor")
    ref = make_reference(cfg.reference)
    t0 = time.perf_counter()
    res = closed_loop_simulate(
        cfg.params,
        cfg.initial_state(ref),
        ref,
        tune_gains(cfg.t_stab),
        control_rate=cfg.loop_rate,
        t_end=cfg.horizon,
    )
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def figure8_run():
    cfg = load_scenario("figure8")
    ref = make_reference(cfg.reference)
    t0 = time.perf_counter()
    res = closed_loop_simulate(
        cfg.params,
        cfg.initial_state(ref),
        ref,
        tune_gains(cfg.t_stab),
        control_rate=cfg.loop_rate,
        disturbances=cfg.disturbances,
        t_end=cfg.horizon,
    )
    return res, time.perf_counter() - t0, cfg


def test_criterion_01_steering_determinant_is_invariant(params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    drift = max(
        abs(np.linalg.det(fik_matrix(params, random_q(rng))) - (-6.25e-3))
        for _ in range(1000)
    )
    took = time.perf_counter() - t0
    verdict(
        1,
        drift <= 1e-12 and took < 1.0,
        f"det(M_FIK) drift {drift:.2e} over 1000 configurations (tol 1e-12), {took:.2f}s of 1s",
    )


def test_criterion_02_dynamics_routes_agree(params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_fwd = worst_inv = worst_round = 0.0
    for _ in range(1000):
        state = random_admissible(params, rng)
        u = rng.uniform(-20.0, 20.0, 3)
        fast = forward_dynamics(params, state.q, state.dq, u)
        conv, _ = forward_dynamics_conventional(params, state.q, state.dq, u)
        worst_fwd = max(
            worst_fwd,
            np.linalg.norm(fast - conv) / max(1.0, np.linalg.norm(conv)),
        )
        u_fast = inverse_dynamics(params, state.q, state.dq, fast)
        u_conv, _ = inverse_dynamics_conventional(params, state.q, state.dq, fast)
        worst_inv = max(
            worst_inv,
            np.linalg.norm(u_fast - u_conv) / max(1.0, np.linalg.norm(u_conv)),
        )
        worst_round = max(
            worst_round,
            np.linalg.norm(u_fast - u) / max(1.0, np.linalg.norm(u)),
        )
    took = time.perf_counter() - t0
    verdict(
        2,
        worst_fwd <= 1e-9 and worst_inv <= 1e-9 and worst_round <= 1e-8 and took < 5.0,
        f"forward {worst_fwd:.2e} / inverse {worst_inv:.2e} (tol 1e-9), "
        f"round trip {worst_round:.2e} (tol 1e-8), {took:.2f}s of 5s",
    )


def test_criterion_03_structural_identities(params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    w_jd = w_de = w_sym = 0.0
    min_eig = np.inf
    for _ in range(1000):
        q = random_q(rng)
        lam, delta = lambda_delta(params, q)
        w_jd = max(w_jd, np.abs(constraint_jacobian(params, q) @ delta).max())
        w_de = max(w_de, np.abs(delta.T @ input_matrix() - np.eye(3)).max())
        m = mass_matrix(params, q)
        w_sym = max(w_sym, np.abs(m - m.T).max())
        min_eig = min(min_eig, np.linalg.eigvalsh(m).min())
    # directional finite difference of M along the motion
    w_skew = 0.0
    h = 1e-6
    for _ in range(200):
        q = random_q(rng)
        dq = rng.uniform(-1.0, 1.0, 6)
        md = (mass_matrix(params, q + 0.5 * h * dq) - mass_matrix(params, q - 0.5 * h * dq)) / h
        s = md - 2.0 * coriolis_matrix(params, q, dq)
        w_skew = max(w_skew, np.abs(s + s.T).max())
    took = time.perf_counter() - t0
    verdict(
        3,
        w_jd <= 1e-12
        and w_de <= 1e-12
        and w_skew <= 1e-6
        and w_sym <= 1e-12
        and min_eig > 0.0
        and took < 5.0,
        f"J.Delta {w_jd:.1e}, Delta^T.E-I {w_de:.1e} (tol 1e-12), "
        f"Mdot-2C skew {w_skew:.1e} (tol 1e-6), min eig(M) {min_eig:.3f}, {took:.2f}s of 5s",
    )


def test_criterion_04_platform_spin_matches_closed_form(params):
    t0 = time.perf_counter()
    grid = np.arange(151) / 100.0
    traj = simulate_shaft(
        params.Ip, params.bp, ControlSequence.constant([6.0], 1.5, 100.0), output_times=grid
    )
    expect = (6.0 / params.bp) * (1.0 - np.exp(-params.bp * grid / params.Ip))
    rate = traj.states[:, 1]
    rel = np.abs(rate[1:] - expect[1:]) / np.abs(expect[1:])
    took = time.perf_counter() - t0
    verdict(
        4,
        rate[0] == 0.0 and rel.max() <= 1e-8 and took < 1.0,
        f"shaft rate vs analytic rtol {rel.max():.2e} (tol 1e-8) over 1.5s, {took:.2f}s of 1s",
    )


def test_criterion_05_friction_and_inertia_identification(params):
    t0 = time.perf_counter()
    errs = []
    for seed in range(10):
        est = {}
        for row in (FITS["step1_wheel"], FITS["step1_platform"]):
            est.update(fit(experiment(row, params, seed), params, row.names, GUESS).as_dict())
        errs.append(
            [
                abs(est["bw"] - params.bw),
                abs(est["Ia"] - params.Ia),
                abs(est["bp"] - params.bp),
                abs(est["Ip0"] - params.Ip),
            ]
        )
    med = np.median(errs, axis=0)
    tol = np.array([1e-3, 1e-3, 5e-3, 5e-3])
    took = time.perf_counter() - t0
    verdict(
        5,
        bool(np.all(med <= tol)) and took < 60.0,
        "median errors over 10 seeds (bw, Ia, bp, Ip0) = "
        f"({med[0]:.1e}, {med[1]:.1e}, {med[2]:.1e}, {med[3]:.1e}) "
        f"vs (1e-3, 1e-3, 5e-3, 5e-3), {took:.1f}s of 60s",
    )


def test_criterion_06_chassis_identification(params):
    t0 = time.perf_counter()
    known = params.replace(xF=0.0, yF=0.0)
    row = FITS["step2"]
    errs = []
    for seed in range(10):
        est = fit(experiment(row, params, seed), known, row.names, GUESS)
        errs.append(
            [
                abs(est["mc"] - params.mc),
                abs(est["Ic"] - params.Ic),
                abs(est["xB"] - params.xB),
                abs(est["yB"] - params.yB),
            ]
        )
    med = np.median(errs, axis=0)
    tol = np.array([0.2, 1e-2, 1e-3, 1e-3])
    took = time.perf_counter() - t0
    verdict(
        6,
        bool(np.all(med <= tol)) and took < 300.0,
        "median errors over 10 seeds (mc, Ic, xB, yB) = "
        f"({med[0]:.2e}, {med[1]:.2e}, {med[2]:.2e}, {med[3]:.2e}) "
        f"vs (0.2, 1e-2, 1e-3, 1e-3), {took:.1f}s of 300s",
    )


def test_criterion_07_platform_reidentification_under_load(params):
    t0 = time.perf_counter()
    row = FITS["step3"]
    est = fit(
        experiment(row, params, seed=1, window=1.0),
        params,
        row.names,
        platform_guess(0.25, params.mp, params.Ip),
    )
    errs = np.array(
        [
            abs(est["mp"] - params.mp),
            abs(est["Ip"] - params.Ip),
            abs(est["xF"] - params.xF),
            abs(est["yF"] - params.yF),
        ]
    )
    tol = np.array([0.2, 1e-2, 1e-3, 1e-3])
    cells = sensitivity_sweep(
        deviations=(0.05, 0.10, 0.15, 0.20, 0.25),
        seeds=range(2),
        true_params=params,
    )
    frac = float(np.mean([cell["converged"] for cell in cells]))
    took = time.perf_counter() - t0
    verdict(
        7,
        bool(np.all(errs <= tol)) and frac >= 0.9 and took < 600.0,
        "1s-window errors (mp, Ip, xF, yF) = "
        f"({errs[0]:.2e}, {errs[1]:.2e}, {errs[2]:.2e}, {errs[3]:.2e}) "
        f"vs (0.2, 1e-2, 1e-3, 1e-3); sweep convergence {frac:.0%} of 10 cells, "
        f"{took:.1f}s of 600s",
    )


def test_criterion_08_gain_tuning_values():
    g = tune_gains(3.0)
    printed_ok = f"{g.kp[0]:.3f}" == "17.778" and f"{g.kv[0]:.3f}" == "14.667"
    a = np.block(
        [[np.zeros((3, 3)), np.eye(3)], [-np.diag(g.kp), -np.diag(g.kv)]]
    )
    eig = np.linalg.eigvals(a)
    w_imag = np.abs(eig.imag).max()
    got = np.sort(eig.real)
    want = np.sort([-4.0 / 3.0] * 3 + [-40.0 / 3.0] * 3)
    w_eig = np.abs(got - want).max()
    verdict(
        8,
        printed_ok and w_imag <= 1e-12 and w_eig <= 1e-10,
        f"kp={g.kp[0]:.3f} kv={g.kv[0]:.3f}; closed-loop eigenvalues "
        f"(-1.333, -13.333) shown, match exact poles to {w_eig:.1e} (tol 1e-10)",
    )


def test_criterion_09_corridor_transients(corridor_run):
    res, took = corridor_run
    t = res.trajectory.times
    pos = np.linalg.norm(res.e_p[:, :2], axis=1)
    vel = np.linalg.norm(res.e_v[:, :2], axis=1)
    pos_rec, vel_rec = [], []
    for onset in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0):
        end = onset + 4.999 if onset < 25.0 else 30.0
        pos_rec.append(transient_metrics(t, pos, onset, window_end=end).recovery)
        vel_rec.append(
            transient_metrics(t, vel, onset, window_end=end, sustained=True).recovery
        )
    alpha = np.abs(res.e_p[:, 2]).max()
    ok = (
        all(r is not None and 2.7 <= r <= 3.3 for r in pos_rec)
        and all(r is not None and r <= 3.3 for r in vel_rec)
        and alpha <= 1e-6
        and took < 30.0
    )
    verdict(
        9,
        ok,
        f"position recoveries {min(pos_rec):.3f}..{max(pos_rec):.3f}s in [2.7, 3.3], "
        f"velocity settles by {max(vel_rec):.3f}s, alpha error {alpha:.1e} (tol 1e-6), "
        f"{took:.1f}s of 30s",
    )


def test_criterion_10_figure8_disturbance_rejection(figure8_run):
    res, took, cfg = figure8_run
    t = res.trajectory.times
    dt = 1.0 / cfg.loop_rate
    pos = np.linalg.norm(res.e_p[:, :2], axis=1)
    vel = np.linalg.norm(res.e_v[:, :2], axis=1)
    # third force: the window is long enough to observe the full recovery
    p3 = transient_metrics(t, pos, 12.0, window_end=18.0).recovery
    v3 = transient_metrics(t, vel, 12.0, window_end=18.0).recovery
    # first two forces: the next force arrives first, so assert the
    # slow-pole contraction reached by the window end instead
    ratios = []
    for onset, end, bound in ((5.0, 8.0, 0.030), (9.0, 11.0, 0.104)):
        k = int(round(end / dt))
        for sig in (pos, vel):
            peak = transient_metrics(t, sig, onset, window_end=end).peak
            ratios.append((sig[k] / peak, bound))
    ok = (
        p3 is not None
        and v3 is not None
        and 2.7 <= p3 <= 3.3
        and 2.7 <= v3 <= 3.3
        and all(r <= b for r, b in ratios)
        and took < 30.0
    )
    verdict(
        10,
        ok,
        f"force-3 recovery pos {p3:.3f}s / vel {v3:.3f}s in [2.7, 3.3]; "
        "truncated-window contractions "
        + ", ".join(f"{r:.3f}<={b}" for r, b in ratios)
        + f", {took:.1f}s of 30s",
    )


def test_criterion_11_planned_trajectory_tracking():
    t0 = time.perf_counter()
    cfg = load_scenario("plan-tracking")
    plan = build_plan(
        cfg.params, horizon=cfg.horizon, rate=cfg.plan_rate, mass_error=cfg.plan_mass_error
    )
    replay = open_loop_replay(cfg.params, plan)
    drift = np.linalg.norm(replay.states[:, :2] - plan.states[:, :2], axis=1)
    res = track_planned_trajectory(
        cfg.params, plan, tune_gains(cfg.t_stab), control_rate=cfg.loop_rate
    )
    pos = np.linalg.norm(res.e_p[:, :2], axis=1).max()
    vel = np.linalg.norm(res.e_v[:, :2], axis=1).max()
    aerr = np.abs(res.e_p[:, 2]).max()
    arate = np.abs(res.e_v[:, 2]).max()
    took = time.perf_counter() - t0
    ok = (
        drift.max() > 0.10
        and pos < 1e-3
        and vel < 1e-2
        and aerr < 1e-3
        and arate < 5e-3
        and took < 60.0
    )
    verdict(
        11,
        ok,
        f"open-loop drift max {drift.max():.3f}m (> 0.10); closed loop "
        f"pos {pos * 1e3:.2f}mm, vel {vel * 100:.3f}cm/s, alpha {aerr:.1e}rad, "
        f"alpha rate {arate:.1e}rad/s, {took:.1f}s of 60s",
    )


def test_criterion_12_torque_hull_encloses_monte_carlo():
    t0 = time.perf_counter()
    cfg = load_scenario("corridor")
    g = tune_gains(cfg.t_stab)
    rep = torque_feasibility(cfg.params, make_reference(cfg.reference), g)
    rng = np.random.default_rng(0)
    e_p = rng.uniform(-0.05, 0.05, size=(10000, 3))
    e_v = rng.uniform(-0.25, 0.25, size=(10000, 3))
    fb = -g.kp * e_p - g.kv * e_v
    violations = 0
    margin = np.inf
    for k in range(len(rep.times)):
        u = fb @ rep.mbar[k].T + (e_v + rep.v_ref[k]) @ rep.cbar[k].T + rep.mbar[k] @ rep.a_ref[k]
        violations += int(np.count_nonzero((u < rep.lo[k]) | (u > rep.hi[k])))
        margin = min(margin, float((u - rep.lo[k]).min()), float((rep.hi[k] - u).min()))
    took = time.perf_counter() - t0
    verdict(
        12,
        violations == 0 and took < 60.0,
        f"{violations} violations from 10^4 samples x {len(rep.times)} grid times, "
        f"worst inside margin {margin:.3f} N m, {took:.1f}s of 60s",
    )


def test_criterion_13_constraints_conserved_over_long_run(figure8_run):
    res, _, cfg = figure8_run
    states = res.trajectory.states
    q0 = states[0, :6]
    w_roll = 0.0
    w_holo = 0.0
    for row in states:
        q, dq = row[:6], row[6:]
        w_roll = max(w_roll, np.abs(constraint_jacobian(cfg.params, q) @ dq).max())
        w_holo = max(w_holo, abs(holonomic_residual(cfg.params, q, q0)))
    verdict(
        13,
        w_roll <= 1e-6 and w_holo <= 1e-6,
        f"18s run at rtol 1e-9: max |J qdot| {w_roll:.2e}, "
        f"max holonomic residual {w_holo:.2e} (tol 1e-6 each)",
    )
