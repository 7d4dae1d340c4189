import numpy as np
import pytest

from conftest import save_params
from otbot.params import (
    PARAM_FIELDS,
    RobotParams,
    load_params,
    nominal_params,
)


def test_nominal_values():
    p = nominal_params()
    assert (p.l1, p.l2, p.r) == (0.25, 0.20, 0.10)
    assert (p.xB, p.yB, p.xF, p.yF) == (-0.13, 0.0, 0.0, 0.0)
    assert (p.mc, p.mp) == (109.14, 21.95)
    assert (p.Ic, p.Ip, p.Ia) == (1.30, 2.22, 1.04e-2)
    assert (p.bw, p.bp) == (0.18, 0.24)


def test_replace_returns_new_instance():
    p = nominal_params()
    q = p.replace(mc=100.0)
    assert q.mc == 100.0
    assert p.mc == 109.14
    assert q.l1 == p.l1


@pytest.mark.parametrize("field", ["l1", "l2", "r", "mc", "mp", "Ic", "Ip", "Ia"])
def test_rejects_nonpositive(field):
    with pytest.raises(ValueError, match=field):
        nominal_params().replace(**{field: 0.0})


@pytest.mark.parametrize("field", ["bw", "bp"])
def test_rejects_negative_friction(field):
    with pytest.raises(ValueError, match=field):
        nominal_params().replace(**{field: -0.1})
    nominal_params().replace(**{field: 0.0})  # zero friction is allowed


def test_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        nominal_params().replace(xB=np.nan)


def _constructed(**changes) -> RobotParams:
    return RobotParams(**{**nominal_params().as_dict(), **changes})


@pytest.mark.parametrize("field", PARAM_FIELDS)
@pytest.mark.parametrize("value", [0.0, -0.1, -np.inf, np.inf, np.nan])
def test_replace_raises_what_the_constructor_raises(field, value):
    # replace checks only the changed fields; every invalid value still
    # raises, with the constructor's message
    try:
        expected = _constructed(**{field: value})
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            nominal_params().replace(**{field: np.float64(value)})
        assert str(got.value) == str(exc)
    else:  # a valid value, e.g. a zero offset
        assert nominal_params().replace(**{field: value}) == expected


def test_replace_reports_the_first_bad_field_as_the_constructor_does():
    changes = {"bp": -1.0, "xB": np.nan, "Ia": 0.0, "r": np.inf}
    for make in (nominal_params().replace, _constructed):
        with pytest.raises(ValueError, match=r"^Ia must be positive, got 0\.0$"):
            make(**changes)


def test_replace_casts_to_float_and_rejects_unknown_fields():
    q = nominal_params().replace(mc=np.float64(100.0), xB=np.int64(0))
    assert type(q.mc) is float and type(q.xB) is float and q.xB == 0.0
    with pytest.raises(TypeError, match="wheelbase"):
        nominal_params().replace(wheelbase=0.5)


def test_file_round_trip(tmp_path):
    p = nominal_params().replace(xF=0.03, yF=-0.01, mp=146.95)
    path = tmp_path / "robot.cfg"
    save_params(p, path)
    assert load_params(path) == p


def test_load_reports_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    body = "\n".join(f"{k} = 1.0" for k in PARAM_FIELDS)
    path.write_text(body + "\nwheelbase = 0.5\n")
    with pytest.raises(ValueError, match="wheelbase"):
        load_params(path)


def test_load_reports_missing_field(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("l1 = 0.25\nl2 = 0.2\n")
    with pytest.raises(ValueError, match="missing"):
        load_params(path)


def test_load_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "commented.cfg"
    save_params(nominal_params(), path)
    text = "# header\n\n" + path.read_text().replace("r = 0.1", "r = 0.1  # wheel")
    path.write_text(text)
    assert load_params(path) == nominal_params()


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.cfg"
    save_params(nominal_params(), path)
    path.write_text(path.read_text() + "r = 0.2\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_params(path)
