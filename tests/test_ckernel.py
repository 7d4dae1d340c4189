"""The compiled parts of otbot against the Python code, their oracle.

``dp5_robot_attempt`` (``src/otbot/_dp5_robot.c``) must give the same bits
as the generated Python kernel, fail where the Python kernel raises, and
leave every rollout unchanged when it cannot be built. ``format_rows``
(``src/otbot/_csv_format.cpp``) must spell every double as ``repr`` does,
so ``write_csv`` writes the same bytes with it and without it.
"""

from __future__ import annotations

import fnmatch
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from otbot import _ckernel, integrator, simulate
from otbot.integrator import (
    IntegratorOptions,
    IntegratorStats,
    _CompiledAttempt,
    _PythonAttempt,
    _compiled_robot_attempt,
    _step_kernel,
    advance_segment,
)
from otbot.params import PARAM_FIELDS, nominal_params
from otbot.simulate import (
    ControlSequence,
    DisturbanceSchedule,
    ForcePulse,
    _csv_formatter,
    _robot_model,
    simulate_robot,
    write_csv,
)
from otbot.dynamics import admissible_state


@pytest.fixture
def compiled():
    """The C attempt; the test is skipped where it cannot be built."""
    run = _compiled_robot_attempt()
    if run is None:
        pytest.skip("no working C compiler (cc): the compiled DP5 attempt cannot be built")
    return run


@pytest.fixture
def formatter():
    """The compiled CSV formatter; the test is skipped where it cannot be built."""
    run = _csv_formatter()
    if run is None:
        pytest.skip(
            "no working C++ compiler (c++ with floating-point std::to_chars): "
            "the CSV formatter cannot be built"
        )
    return run


def _params(rng):
    """A random parameter set around the catalogue robot, as a plain namespace."""
    p = nominal_params().as_dict()
    for name in PARAM_FIELDS:
        p[name] *= rng.uniform(0.5, 2.0)
    for name in ("xB", "yB", "xF", "yF"):
        p[name] = rng.uniform(-0.4, 0.4)
    return SimpleNamespace(**p)


def _state(rng):
    q = rng.uniform(-4.0, 4.0, 6)
    kind = rng.integers(4)
    if kind == 1:
        # headings theta = alpha - phi_p on or next to a multiple of pi/2,
        # where sin or cos is near zero
        q[5] = q[2] - rng.integers(-4, 5) * (math.pi / 2) - rng.choice([0.0, 1e-12, -1e-9])
    elif kind == 2:
        q[2] = rng.integers(-4, 5) * (math.pi / 2)  # alpha on the axes
    elif kind == 3:
        q[2:] = rng.uniform(-1e4, 1e4, 4)  # far out for the range reduction
    return q.tolist() + rng.uniform(-3.0, 3.0, 6).tolist()


def _both(f, y, k1, h, rtol, atol, run):
    c = _CompiledAttempt(run, f, np.array(y), k1, rtol, atol)
    py = _PythonAttempt(f, np.array(y), k1, rtol, atol)
    return c, c(0.0, h), py, py(0.0, h)


def test_compiled_attempt_equals_the_python_kernel(compiled):
    rng = np.random.default_rng(7)
    step = _step_kernel(12)
    for _ in range(3000):
        p = _params(rng)
        u = rng.uniform(-40.0, 40.0, 3).tolist()
        force = (rng.uniform(-80.0, 80.0, 2) * rng.integers(2)).tolist()
        f = _robot_model(p)(u, force)
        y = _state(rng)
        k1 = f(0.0, y)
        h = float(10.0 ** rng.uniform(-6.0, -0.5))
        rtol, atol = float(10.0 ** rng.uniform(-11.0, -5.0)), float(10.0 ** rng.uniform(-14.0, -8.0))

        c, c_norm, py, py_norm = _both(f, y, k1, h, rtol, atol, compiled)
        y_new, k7, err = step(f, 0.0, h, y, k1)
        ratio = [
            e / (atol + rtol * (a if a > b or a != a else b))
            for e, a, b in zip(err, map(abs, y), map(abs, y_new))
        ]
        assert c.ratio.tolist() == ratio
        assert c_norm == py_norm
        c.accept()
        py.accept()
        c_y, c_k7 = c.result()
        assert c_y.tolist() == y_new
        assert c_k7.tolist() == k7
        py_y, _ = py.result()
        assert (c_y == py_y).all()


@pytest.mark.parametrize(
    "change, error",
    [
        ({"l1": 0.0}, ZeroDivisionError),
        ({"r": 0.0}, ZeroDivisionError),
        ({"l2": 0.0}, ZeroDivisionError),
        ({"alpha": math.inf}, ValueError),
        ({"alpha": -math.inf}, ValueError),
        ({"phi_p": math.inf}, ValueError),
        # theta = inf - inf is nan, which sin and cos take; alpha is the inf
        ({"alpha": math.inf, "phi_p": math.inf}, ValueError),
    ],
    ids=["l1-zero", "r-zero", "l2-zero", "alpha-inf", "alpha-minus-inf", "heading-inf",
         "alpha-inf-heading-nan"],
)
def test_where_python_raises_the_compiled_attempt_stops_and_python_raises(compiled, change, error):
    p = nominal_params().as_dict()
    p.update({k: v for k, v in change.items() if k in p})
    f = _robot_model(SimpleNamespace(**p))([5.0, -3.0, 2.0], [1.0, 0.0])
    y = [0.1, 0.2, change.get("alpha", 0.3), 0.0, 0.0, change.get("phi_p", 0.1)] + [0.5] * 6
    k1 = [0.0] * 12
    c = _CompiledAttempt(compiled, f, np.array(y), k1, 1e-9, 1e-12)
    assert compiled(f.block, 1e-3, 1e-9, 1e-12, *c.orders[0], c.ratio_at) != 0
    for attempt in (_PythonAttempt, lambda *a: _CompiledAttempt(compiled, *a)):
        with pytest.raises(error):
            attempt(f, np.array(y), k1, 1e-9, 1e-12)(0.0, 1e-3)
    with pytest.raises(error):
        advance_segment(f, 0.0, 0.01, np.array(y), IntegratorOptions(), IntegratorStats(),
                        h_start=1e-3, k1=k1)


def test_a_zero_error_scale_is_an_infinite_norm_on_both_kernels(compiled):
    # at rest, unforced, with atol = 0: every scale is zero
    f = _robot_model(nominal_params())([0.0, 0.0, 0.0], [0.0, 0.0])
    y = [0.0] * 12
    k1 = f(0.0, y)
    c, c_norm, py, py_norm = _both(f, y, k1, 1e-3, 1e-9, 0.0, compiled)
    assert c_norm == py_norm == math.inf


def _rollout():
    p = nominal_params()
    state = admissible_state(p, np.array([0.1, -0.2, 0.3, 0.0, 0.0, 0.2]), dp=np.array([0.2, -0.1, 0.3]))
    rng = np.random.default_rng(3)
    controls = ControlSequence(t0=0.0, dt=0.01, samples=rng.uniform(-10.0, 10.0, (60, 3)))
    pulses = DisturbanceSchedule((ForcePulse(0.123, 0.3, fx=40.0, fy=-25.0),))
    before = dict(integrator.robot_segments)
    traj = simulate_robot(p, state, controls, disturbances=pulses)
    ran = {k: integrator.robot_segments[k] - before[k] for k in before}
    return traj, ran


def test_forced_fallback_gives_the_same_rollout(compiled, request):
    c, c_ran = _rollout()
    assert c_ran["c"] > 0 and c_ran["python"] == 0
    request.getfixturevalue("python_kernel")
    py, py_ran = _rollout()
    assert py_ran == {"c": 0, "python": c_ran["c"]}
    for name in ("times", "states", "derivs", "controls"):
        assert np.array_equal(getattr(c, name), getattr(py, name)), name
    assert c.stats == py.stats


def _check_build_fallbacks(library, load, compiler, tmp_path, monkeypatch):
    """``build(*library)`` and ``load`` around caches and a failing ``compiler``."""
    # a cache path below a regular file cannot be created
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "file" / "otbot")
    built = _ckernel.build(*library)
    assert built is not None and built.is_file()
    assert tmp_path not in built.parents
    assert load() is not None

    # a writable cache is filled once and then reused
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "cache")
    first = _ckernel.build(*library)
    assert first.parent == tmp_path / "cache"
    assert [p.name for p in first.parent.iterdir()] == [first.name]
    assert _ckernel.build(*library) == first

    # a compiler that fails selects the Python code
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setattr(_ckernel, "cache_dir", lambda: tmp_path / "other")
    monkeypatch.setattr(_ckernel, compiler, str(failing))
    assert load() is None
    assert list((tmp_path / "other").iterdir()) == []


def test_build_falls_back_to_a_process_directory_and_to_python(compiled, tmp_path, monkeypatch):
    library = (_ckernel.SOURCE, _ckernel.COMPILER, _ckernel.FLAGS)
    _check_build_fallbacks(library, _ckernel.load, "COMPILER", tmp_path, monkeypatch)


def test_formatter_build_falls_back_to_a_process_directory_and_to_python(
    formatter, tmp_path, monkeypatch
):
    library = (_ckernel.FORMATTER_SOURCE, _ckernel.CXX, _ckernel.CXX_FLAGS)
    _check_build_fallbacks(library, _ckernel.load_formatter, "CXX", tmp_path, monkeypatch)


def test_sources_sit_next_to_the_module_and_ship_as_package_data():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["otbot"]
    for source in (_ckernel.SOURCE, _ckernel.FORMATTER_SOURCE):
        assert source.parent == Path(_ckernel.__file__).parent and source.is_file()
        assert any(fnmatch.fnmatch(source.name, pattern) for pattern in shipped), source.name


def _spelled(format_rows, table: np.ndarray, eol: bytes) -> bytes:
    """``format_rows`` of a whole float64 table in one call."""
    rows, cols = table.shape
    out = np.empty(rows * (_ckernel.CELL_BYTES * cols + len(eol)), dtype=np.uint8)
    n = format_rows(table.ctypes.data, rows, cols, eol, len(eol), out.ctypes.data, out.size)
    assert n >= 0
    return out[:n].tobytes()


def _repr_rows(table: np.ndarray, eol: str) -> bytes:
    """The oracle: every row joined from ``repr`` in Python."""
    return "".join(",".join(map(repr, row)) + eol for row in table.tolist()).encode()


def test_formatter_spells_random_bit_patterns_as_repr(formatter):
    bits = np.random.default_rng(11).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    table = bits.view(np.float64).reshape(-1, 8)
    assert _spelled(formatter, table, b"\n") == _repr_rows(table, "\n")


def _bits_around(value: float, n: int) -> np.ndarray:
    """The n doubles below ``value``, ``value`` and the n above it."""
    bits = np.array([value]).view(np.int64)[0] + np.arange(-n, n + 1, dtype=np.int64)
    return bits.view(np.float64)


def test_formatter_spells_the_edge_cases_as_repr(formatter):
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    rng = np.random.default_rng(3)
    subnormals = rng.integers(1, 2**52, size=100_000, dtype=np.int64).view(np.float64)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        twos, np.nextafter(twos, np.inf), np.nextafter(twos, 0.0),
        subnormals, _bits_around(np.finfo(float).tiny, 1000),
        # around 1e16 fixed notation gives way to exponents; 2**53 ends the integers
        np.arange(10**16 - 3000, 10**16 + 3000, dtype=np.int64).astype(np.float64),
        _bits_around(1e16, 1000), _bits_around(2.0**53, 1000),
        # around 1e-4 exponents take over from fixed notation
        _bits_around(1e-4, 1000), _bits_around(1e-5, 1000),
        np.array([0.0, np.inf, 1.0, 0.1, np.finfo(float).max]), nans,
    ])
    table = np.concatenate([values, -values]).reshape(-1, 1)
    assert np.isnan(table).sum() == 8 and np.signbit(table[np.isnan(table)]).sum() == 4
    spelled = _spelled(formatter, table, b"\n")
    assert spelled == _repr_rows(table, "\n")
    assert b"-0.0\n" in spelled and b"-nan" not in spelled


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_write_csv_blocks_match_the_python_rows(formatter, tmp_path, line_end):
    block = simulate._BLOCK_ROWS
    rng = np.random.default_rng(5)
    # the longest spelling fills every cell, so every block fills its buffer
    longest = -2.2250738585072014e-308
    assert len(repr(longest)) + 1 == _ckernel.CELL_BYTES
    for rows in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        times = np.arange(rows) * 1e-3
        states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 20, (rows, 3))
        fill = np.full((rows, 2), longest)
        path = tmp_path / f"{rows}.csv"
        write_csv(path, ["t", "a", "b", "c", "d", "e"], [times, states, fill], line_end=line_end)
        table = np.column_stack([times, states, fill])
        expected = ("t,a,b,c,d,e" + line_end).encode() + _repr_rows(table, line_end)
        assert path.read_bytes() == expected, rows


def test_formatter_refuses_a_buffer_a_row_might_overflow(formatter):
    longest = -2.2250738585072014e-308
    table = np.full((3, 4), longest)
    line = ",".join([repr(longest)] * 4).encode() + b"\r\n"
    bound = _ckernel.CELL_BYTES * 4 + 2  # what a row of 4 doubles may take
    assert len(line) == bound - 1  # no separator after the last cell
    out = np.full(3 * bound, 0xAB, dtype=np.uint8)

    def spell(rows, size):
        return formatter(table.ctypes.data, rows, 4, b"\r\n", 2, out.ctypes.data, size)

    assert spell(3, 2 * len(line) + bound) == 3 * len(line)
    assert out[: 3 * len(line)].tobytes() == line * 3
    out[:] = 0xAB
    # the third row is refused where its bound does not fit, and nothing is written past two rows
    assert spell(3, 2 * len(line) + bound - 1) == -1
    assert out[: 2 * len(line)].tobytes() == line * 2 and (out[2 * len(line) :] == 0xAB).all()
    assert spell(1, bound - 1) == -1 and spell(0, 0) == 0


def test_write_csv_raises_where_its_buffer_is_sized_too_small(formatter, tmp_path, monkeypatch):
    # a bound one byte short: a full block of the longest spelling would overflow
    monkeypatch.setattr(_ckernel, "CELL_BYTES", _ckernel.CELL_BYTES - 1)
    column = np.full(simulate._BLOCK_ROWS, -2.2250738585072014e-308)
    with pytest.raises(RuntimeError, match="CSV formatter"):
        write_csv(tmp_path / "t.csv", ["a"], [column])
