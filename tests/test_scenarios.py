import dataclasses
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import save_params
from otbot.dynamics import constraint_violation, inverse_dynamics, admissible_acceleration
from otbot.params import nominal_params
from otbot.references import (
    CorridorReference,
    Figure8Reference,
    HarmonicReference,
)
from otbot.scenarios import (
    BUNDLED_SCENARIOS,
    MODES,
    SCHEMA,
    ConfigError,
    ScenarioConfig,
    build_plan,
    bundled_scenario_path,
    ensure_plan,
    load_scenario,
    make_reference,
    parse_scenario,
    scenario_listing,
    stabilisation_time,
)


def test_every_bundled_scenario_parses():
    assert len(BUNDLED_SCENARIOS) == 6
    for name in BUNDLED_SCENARIOS:
        cfg = parse_scenario(bundled_scenario_path(name))
        assert cfg.name == name
        assert cfg.horizon > 0.0
        assert cfg.description


def test_bundled_details():
    corridor = load_scenario("corridor")
    assert corridor.mode == "controller"
    assert corridor.reference == "corridor"
    assert corridor.params.bw == corridor.params.bp == 0.0  # friction zeroed
    assert corridor.loop_rate == 1000.0

    wheel = load_scenario("wheel-spin")
    assert wheel.mode == "shaft"
    assert wheel.axis == "wheel"
    assert wheel.shaft_torque == 6.0
    assert wheel.shaft_rate == 100.0
    assert wheel.sensors == {"encoder": 0.01}

    fig8 = load_scenario("figure8")
    assert fig8.velocity == "reference"
    assert len(fig8.disturbances.pulses) == 3
    assert fig8.disturbances.pulses[0].t_on == 4.0

    excite = load_scenario("chassis-excitation")
    np.testing.assert_array_equal(excite.torques, [6.0, -10.0, 6.0])
    assert excite.sensors == {"imu": 13.73e-3}
    assert excite.seed == 1


def test_unknown_bundled_name():
    with pytest.raises(ConfigError, match="wheel-spin"):
        bundled_scenario_path("warehouse")


def test_listing_mentions_every_scenario():
    text = scenario_listing()
    for name in BUNDLED_SCENARIOS:
        assert name in text


def test_load_scenario_accepts_paths(tmp_path):
    by_name = load_scenario("corridor")
    by_path = load_scenario(bundled_scenario_path("corridor"))
    assert by_path.name == by_name.name
    assert by_path.params == by_name.params


def test_a_bare_bundled_name_ignores_the_working_directory(tmp_path, monkeypatch):
    # an earlier run's output directory, named after the scenario it ran
    (tmp_path / "corridor").mkdir()
    (tmp_path / "corridor" / "report.txt").write_text("scenario = corridor\n")
    monkeypatch.chdir(tmp_path)
    cfg = load_scenario("corridor")
    assert cfg.path == bundled_scenario_path("corridor")
    assert cfg.mode == "controller"
    with pytest.raises(ConfigError, match="scenario file not found"):
        load_scenario("./corridor.cfg")


def test_missing_file_names_the_path():
    with pytest.raises(ConfigError, match="nowhere.cfg"):
        parse_scenario("nowhere.cfg")


def _write_scenario(tmp_path, body, name="case.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_missing_scenario_section(tmp_path):
    path = _write_scenario(tmp_path, "[torques]\nvalues = 1, 2, 3\n")
    with pytest.raises(ConfigError, match=r"case\.cfg.*scenario"):
        parse_scenario(path)


def test_unknown_mode(tmp_path):
    path = _write_scenario(tmp_path, "[scenario]\nmode = teleport\nhorizon = 1\n")
    with pytest.raises(ConfigError, match="teleport"):
        parse_scenario(path)


def test_wrong_q_length(tmp_path):
    body = "[scenario]\nmode = torques\nhorizon = 1\n[initial]\nq = 1, 2, 3\n[torques]\nvalues = 1, 2, 3\n"
    with pytest.raises(ConfigError, match="6 values"):
        parse_scenario(_write_scenario(tmp_path, body))


def test_torques_mode_requires_torques(tmp_path):
    body = "[scenario]\nmode = torques\nhorizon = 1\n"
    with pytest.raises(ConfigError, match="torques"):
        parse_scenario(_write_scenario(tmp_path, body))


def test_stabilisation_time_needs_finite_normal_gains():
    # kp = 160 / t_stab**2 is finite from about 9.4e-154 s and normal up to about 8.5e154 s
    for t_stab in (3.0, 1e-153, 8e154):
        assert stabilisation_time(t_stab) is None
    for t_stab in (0.0, -1.0, float("nan"), float("inf"), 5e-324, 1e-154, 9e154, 1e300):
        assert stabilisation_time(t_stab), t_stab


@pytest.mark.parametrize("mass_error, ok", [(-0.9999999999999999, True), (1.0, True),
                                             (-1.0, False), (1.0000000000000002, False)])
def test_plan_mass_error_lies_in_minus_one_to_one(tmp_path, mass_error, ok):
    body = f"[scenario]\nmode = plan\nhorizon = 1\n[plan]\nmass_error = {mass_error!r}\n"
    path = _write_scenario(tmp_path, body)
    if ok:
        assert parse_scenario(path).plan_mass_error == mass_error
    else:
        with pytest.raises(ConfigError, match=r"\[plan\] mass_error must be above -1 and at most 1"):
            parse_scenario(path)


def test_controller_mode_requires_known_reference(tmp_path):
    body = "[scenario]\nmode = controller\nhorizon = 1\n[control]\nreference = spiral\n"
    with pytest.raises(ConfigError, match="spiral"):
        parse_scenario(_write_scenario(tmp_path, body))


def test_bad_disturbance_shape(tmp_path):
    body = (
        "[scenario]\nmode = controller\nhorizon = 1\n[control]\nreference = corridor\n"
        "[disturbances]\npulse = 1, 2, 3\n"
    )
    with pytest.raises(ConfigError, match="pulse"):
        parse_scenario(_write_scenario(tmp_path, body))


def test_params_file_with_overrides(tmp_path):
    save_params(nominal_params(), tmp_path / "robot.cfg")
    body = (
        "[scenario]\nmode = torques\nhorizon = 1\n"
        "[params]\nfile = robot.cfg\nmc = 100\nIc = 1.5\nxB = -0.1\n"
        "[torques]\nvalues = 1, 2, 3\n"
    )
    cfg = parse_scenario(_write_scenario(tmp_path, body))
    assert cfg.params.mc == 100.0
    # keys keep their case, so the mixed-case parameters can be overridden too
    assert (cfg.params.Ic, cfg.params.xB) == (1.5, -0.1)
    assert cfg.params.l1 == 0.25


def test_scenario_text_is_read_verbatim(tmp_path):
    # no % interpolation: a percent sign is text like any other
    bundled = bundled_scenario_path("corridor")
    text = re.sub(r"description = .*", "description = 100% speed", bundled.read_text())
    shutil.copy(bundled.with_name("nominal.cfg"), tmp_path)
    cfg = parse_scenario(_write_scenario(tmp_path, text))
    assert cfg.description == "100% speed"
    assert cfg.params == load_scenario("corridor").params


def test_initial_state_rest_and_reference():
    corridor = load_scenario("corridor")
    state = corridor.initial_state()
    assert np.all(state.dq == 0.0)

    fig8 = load_scenario("figure8")
    ref = make_reference(fig8.reference)
    state = fig8.initial_state(ref)
    v0 = ref.sample(0.0)[1]
    np.testing.assert_allclose(state.dq[:3], v0, atol=1e-12)
    assert constraint_violation(fig8.params, state.q, state.dq) < 1e-9
    with pytest.raises(ConfigError, match="reference"):
        fig8.initial_state(None)


def test_make_reference_table():
    assert isinstance(make_reference("corridor"), CorridorReference)
    assert isinstance(make_reference("figure8"), Figure8Reference)
    assert isinstance(make_reference("harmonic"), HarmonicReference)
    with pytest.raises(ConfigError, match="harmonic"):
        make_reference("ellipse")


class TestBuildPlan:
    def test_grid_and_states(self):
        p = nominal_params()
        ref = HarmonicReference(horizon=2.0)
        plan = build_plan(p, horizon=2.0, rate=50.0, mass_error=0.05, reference=ref)
        assert len(plan.times) == 101
        np.testing.assert_allclose(np.diff(plan.times), 0.02, atol=1e-12)
        p_ref, v_ref = (np.array([ref.sample(float(t))[i] for t in plan.times]) for i in (0, 1))
        np.testing.assert_array_equal(plan.states[:, 0:3], p_ref)
        np.testing.assert_allclose(plan.states[:, 6:9], v_ref, atol=1e-12)
        for k in (0, 33, 100):
            assert constraint_violation(p, plan.states[k, :6], plan.states[k, 6:]) < 1e-9

    def test_actions_carry_the_model_mismatch(self):
        p = nominal_params()
        ref = HarmonicReference(horizon=1.0)
        plan = build_plan(p, horizon=1.0, rate=50.0, mass_error=0.05, reference=ref)
        k = 20
        q, dq = plan.states[k, :6], plan.states[k, 6:]
        a_d = ref.sample(float(plan.times[k]))[2]
        ddq = admissible_acceleration(p, q, dq, a_d)
        honest = inverse_dynamics(p, q, dq, ddq)
        assert np.linalg.norm(plan.controls[k] - honest) > 1e-3

    def test_zero_mismatch_matches_inverse_dynamics(self):
        p = nominal_params()
        ref = HarmonicReference(horizon=1.0)
        plan = build_plan(p, horizon=1.0, rate=50.0, mass_error=0.0, reference=ref)
        k = 20
        q, dq = plan.states[k, :6], plan.states[k, 6:]
        a_d = ref.sample(float(plan.times[k]))[2]
        ddq = admissible_acceleration(p, q, dq, a_d)
        np.testing.assert_allclose(
            plan.controls[k], inverse_dynamics(p, q, dq, ddq), rtol=1e-6, atol=1e-8
        )


def test_ensure_plan_generates_then_reuses(tmp_path):
    cfg = load_scenario("plan-tracking")
    cfg.horizon = 1.0  # keep the generated plan small
    cfg.plan_rate = 50.0
    cfg.plan_file = tmp_path / "plan.csv"
    path = ensure_plan(cfg, tmp_path)
    assert path == tmp_path / "plan.csv"
    assert path.exists()
    first = path.read_text()
    again = ensure_plan(cfg, tmp_path)
    assert again == path
    assert path.read_text() == first


def _readme_key_table() -> dict:
    """README's scenario key table: (section, key) -> (default cell, modes)."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| section | key | default | check | modes |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        section, keys, default, _, modes = (cell.strip() for cell in line.strip("|").split("|"))
        modes = MODES if modes == "all" else tuple(m.strip("`") for m in modes.split(", "))
        for key in keys.split(" (")[0].split(", "):
            rows[section.strip("`"), key.strip("`")] = (default, modes)
    return rows


def test_readme_key_table_lists_the_schema():
    table = _readme_key_table()
    assert list(table) == list(SCHEMA)
    defaults = {}
    for f in dataclasses.fields(ScenarioConfig):
        if f.default is not dataclasses.MISSING:
            defaults[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            defaults[f.name] = f.default_factory()
    folder = bundled_scenario_path("corridor").parent
    for (section, key), (cell, modes) in table.items():
        row = SCHEMA[section, key]
        assert modes == row.modes, (section, key)
        assert (cell == "required") == row.required, (section, key)
        if row.field not in {f.name for f in dataclasses.fields(ScenarioConfig)}:
            assert section == "params" and cell == "the `file`'s value"
        elif cell.startswith("`"):
            # a default written as a value reads back to the field's default
            value = row.read(re.match(r"`([^`]*)`", cell).group(1), "README", folder)
            assert np.array_equal(value, defaults[row.field]) if isinstance(value, np.ndarray) \
                else value == defaults[row.field], (section, key)
        else:
            # no value: the field has no default, or one that holds nothing
            default = defaults.get(row.field)
            assert not default or default == type(default)(), (section, key)
