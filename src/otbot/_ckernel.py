"""Build and load the compiled parts of otbot.

Two libraries are compiled on first use, never at import:

- ``_dp5_robot.c``, the rollout loop of the robot and of a shaft (the
  :data:`MODELS`), with the system C compiler (``cc``); its first-step
  guess and step loop are generated from ``otbot.integrator.initial_step``
  and ``advance_segment``. The models with sensitivity lanes carry the
  derivatives of the state in the fitted parameters along, two lanes to a
  GCC vector of two doubles. ``-ffp-contract=off`` and ``-fno-fast-math`` keep every multiply
  and add a separately rounded double operation, in the source's order, a
  vector's per lane; ``-fno-builtin`` keeps ``sin``, ``cos``, ``pow`` and
  ``sqrt`` as calls into the libm that Python calls, with no fused
  ``sincos``. The error norm reduces through the ``ddot`` that numpy
  calls, the computed-torque law's three (3, 3) @ (3,) products through its
  ``dgemv`` (:func:`numpy_blas`), and the guess's means in numpy's pairwise
  order. So the loop computes the same bits as the Python engine; where
  numpy has no such ``ddot`` or ``dgemv`` (another BLAS), the Python engine
  runs.
- ``_csv_format.c``, the CSV formatter (``-O2``): Schubfach's shortest
  round-trip digits in ``repr``'s layout, the bytes of the Python loop, on
  128-bit powers of ten built here from their definition when it loads.

A library is cached in ``$XDG_CACHE_HOME/otbot`` (default ``~/.cache/otbot``)
under the SHA-256 of its source and flags, so the first run after the
source changes compiles it once. It is written to a temporary
name and moved into place, so concurrent processes may build it at once.
Where the cache directory cannot be written, it is built into a temporary
directory of this process. Without a working compiler a loader returns
None and the Python code runs instead. Each loader runs once per process,
so what it returns picks the engine of all its rollouts or tables. A warm
cache imports no build tool, and :func:`sha256` hashes without OpenSSL.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
from collections import namedtuple
from pathlib import Path

# CPython's builtin SHA-256 (3.12+, then 3.10/3.11): hashlib's maps OpenSSL's
# libcrypto, several MB resident, for a few small hashes a process
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_dp5_robot.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin", "-shared", "-fPIC")
# numpy's dot of two float64 vectors and its (3, 3) @ (3,), in the
# 64-bit-integer scipy-openblas build
DDOT = "scipy_cblas_ddot64_"
DGEMV = "scipy_cblas_dgemv64_"
# Rollout.law: 0 for held input rows, else the computed-torque law (robot
# only) without or with feedback
FEEDFORWARD, FEEDBACK = 1, 2


# The models of ``rollout``, which Rollout.model indexes: the name (its rhs
# is <name>_rhs and its DP5 attempt dp5_<name>_attempt in the C), the state
# size, the widths of the parameters, the held input and the pivot force
# that make up its hold blk, in that order, and the sensitivity lanes. The
# shaft is simulate.shaft_derivative on (inertia, damping) and one torque.
# A model with lanes L steps the n states of its plain model and their
# sensitivities to L parameters, n * (1 + L) in all (the rhs of
# _task_sensitivity.robot_sensitivity or shaft_sensitivity); the seeds of its
# lanes follow the parameters in blk, and only the first n states weigh in
# the error norm and the first-step guess, so they take the plain model's
# steps to the same bits.
Model = namedtuple("Model", "name states params inputs forces lanes")
MODELS = (Model("robot", 12, 14, 3, 2, 0), Model("shaft", 2, 2, 1, 0, 0),
          Model("robot_sensitivity", 60, 14 + 8 * 4, 3, 2, 4),
          Model("shaft_sensitivity", 6, 2 + 2 * 2, 1, 0, 2))
MODEL_INDEX = {m.name: i for i, m in enumerate(MODELS)}


class Rollout(ctypes.Structure):
    """One rollout, ``struct rollout`` of ``rollout``: the numpy tables (a
    feedback law's too, its ``mbar`` and ``cbar`` rows NULL where it keeps
    none) and BLAS routines as addresses, the tolerances, what the C moves on
    (the step ``h``, the counts, the output row, the law's ``instant``, the
    hold ``blk``, state ``x``, first stage ``k1``), the law and the model (an
    index of :data:`MODELS`)."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "events", "out", "start", "brk", "held", "forces", "states", "derivs", "controls",
            "reference", "u_traj", "u_corr", "mbar", "cbar", "ddot", "dgemv")),
        *((name, ctypes.c_double) for name in ("rtol", "atol", "h")),
        *((name, ctypes.c_long) for name in (
            "accepted", "rejected", "fevals", "row", "instant", "law", "model")),
        ("blk", ctypes.c_double * 51), ("x", ctypes.c_double * 60), ("k1", ctypes.c_double * 60),
        ("kp", ctypes.c_double * 3), ("kv", ctypes.c_double * 3),
    ]


FORMATTER_SOURCE = Path(__file__).with_name("_csv_format.c")
FORMATTER_FLAGS = ("-O2", "-shared", "-fPIC")
# The most bytes one double and its separator take ("-2.2250738585072014e-308,"):
# a buffer of rows * (CELL_BYTES * cols + n_eol) bytes holds any table.
CELL_BYTES = 25


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "otbot"


def _process_dir() -> Path:
    import atexit
    import tempfile

    path = tempfile.mkdtemp(prefix="otbot-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)


def build(source: Path, compiler: str, flags: tuple[str, ...]) -> Path | None:
    """Path of ``source`` compiled to a shared library, compiled now if it is not cached.

    None if there is no ``compiler`` or it fails on the source.
    """
    exe = shutil.which(compiler)
    if exe is None:
        return None
    text = source.read_bytes()
    key = sha256(text + "\0".join(flags).encode()).hexdigest()
    name = f"{source.stem.lstrip('_')}-{key[:24]}.so"
    cached = cache_dir() / name
    if cached.is_file():
        return cached
    import subprocess
    import tempfile

    for directory in (cache_dir, _process_dir):
        try:
            target = directory() / name
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=target.parent)
        except OSError:  # not writable: try the next place
            continue
        os.close(fd)
        try:
            # libm last, for the rollout loop's sin, cos, pow and sqrt
            done = subprocess.run([exe, *flags, "-o", tmp, str(source), "-lm"], capture_output=True)
            if done.returncode != 0:
                return None
            os.replace(tmp, target)
            return target
        except OSError:
            return None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return None


@functools.cache
def load():
    """``(rollout, ddot, dgemv)``, or None where the library or numpy's BLAS is missing.

    ``rollout(r, i, j)`` runs the events ``[i, j)`` of the :class:`Rollout`
    ``r``, whose ``ddot`` and ``dgemv`` fields are these (from event 0 on, it
    guesses the first step), and returns 0, or nonzero where Python raises.
    """
    blas = numpy_blas()
    path = None if blas is None else build(SOURCE, COMPILER, FLAGS)
    if path is None:
        return None
    run = ctypes.CDLL(str(path)).rollout
    run.argtypes = [ctypes.POINTER(Rollout), ctypes.c_long, ctypes.c_long]
    run.restype = ctypes.c_int
    return run, *blas


def numpy_blas() -> tuple[int, int] | None:
    """Addresses of ``DDOT`` and ``DGEMV`` in the scipy-openblas library numpy loaded, or None.

    numpy's wheels ship that library next to the package; opening it again
    yields the instance already loaded, with its kernel choice.
    """
    import numpy

    root = Path(numpy.__file__).parent
    for library in (*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(library))
            return tuple(ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in (DDOT, DGEMV))
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def load_formatter():
    """The ``format_rows`` function of the CSV formatter, or None.

    ``format_rows(x, rows, cols, eol, n_eol, out, size)`` spells the
    row-major float64 table at address ``x`` into the ``size`` bytes at
    address ``out`` and returns the number of bytes written, or -1 where
    ``size`` is less than ``rows * (CELL_BYTES * cols + n_eol)``; see the
    source's header. Its first argument in C, bound here, is the table of
    :func:`pow10_scaling` as (hi, lo) halves over the k the library exports.
    """
    path = build(FORMATTER_SOURCE, COMPILER, FORMATTER_FLAGS)
    if path is None:
        return None
    lib = ctypes.CDLL(str(path))
    k_min, k_max = (ctypes.c_int.in_dll(lib, name).value for name in ("POW10_K_MIN", "POW10_K_MAX"))
    table = (ctypes.c_uint64 * 2 * (k_max - k_min + 1))(
        *(divmod(pow10_scaling(k), 1 << 64) for k in range(k_min, k_max + 1)))
    format_rows = lib.format_rows
    format_rows.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                            ctypes.c_char_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long]
    format_rows.restype = ctypes.c_long
    return functools.partial(format_rows, table)


def pow10_scaling(k: int) -> int:
    """``ceil(10**k / 2**e)``, e = floor(log2 10**k) - 127: 10**k scaled into [2**127, 2**128)."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    e = num.bit_length() - den.bit_length() - (k < 0) - 127  # 10**-k is no power of two
    return -(-(num << max(-e, 0)) // (den << max(e, 0)))
