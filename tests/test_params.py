import numpy as np
import pytest

from otbot.params import (
    PARAM_FIELDS,
    RobotParams,
    load_params,
    nominal_params,
    save_params,
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
