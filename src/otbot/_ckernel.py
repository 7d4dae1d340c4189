"""Build and load the compiled parts of otbot.

Two libraries are compiled on first use, never at import:

- ``_dp5_robot.c``, the robot's DP5 attempt, with the system C compiler
  (``cc``) and these flags:

  - ``-ffp-contract=off`` and ``-fno-fast-math`` keep every multiply and
    add a separately rounded double operation, in the order the source
    gives;
  - ``-fno-builtin`` keeps ``sin`` and ``cos`` as calls into the same libm
    that Python's ``math`` calls, with no fused ``sincos``.

  So the compiled attempt computes the same bits as the Python kernel.
- ``_csv_format.cpp``, the CSV formatter, with the system C++ compiler
  (``c++ -O2 -std=c++17``): ``std::to_chars`` gives the digits of ``repr``,
  so it writes the same bytes as the Python loop.

A library is cached in ``$XDG_CACHE_HOME/otbot`` (default ``~/.cache/otbot``)
under the SHA-256 of its source and flags. It is written to a temporary
name and moved into place, so concurrent processes may build it at once.
Where the cache directory cannot be written, it is built into a temporary
directory of this process. Without a working compiler a loader returns
None and the Python code runs instead.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_dp5_robot.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin", "-shared", "-fPIC")

FORMATTER_SOURCE = Path(__file__).with_name("_csv_format.cpp")
CXX = "c++"
CXX_FLAGS = ("-O2", "-std=c++17", "-shared", "-fPIC")
# The most bytes one double and its separator take ("-2.2250738585072014e-308,"):
# a buffer of rows * (CELL_BYTES * cols + n_eol) bytes holds any table.
CELL_BYTES = 25


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "otbot"


def _process_dir() -> Path:
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
    key = hashlib.sha256(text + "\0".join(flags).encode()).hexdigest()
    name = f"{source.stem.lstrip('_')}-{key[:24]}.so"
    cached = cache_dir() / name
    if cached.is_file():
        return cached
    for directory in (cache_dir, _process_dir):
        try:
            target = directory() / name
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=target.parent)
        except OSError:  # not writable: try the next place
            continue
        os.close(fd)
        try:
            # libm last, for the DP5 attempt's sin and cos
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


def load():
    """The ``dp5_robot_attempt`` function of the library, or None.

    ``attempt(blk, h, rtol, atol, y, k1, y_new, k7, ratio)`` takes the rhs
    block and the five 12-double buffers as addresses; see the source's
    header for the layout and the status it returns.
    """
    path = build(SOURCE, COMPILER, FLAGS)
    if path is None:
        return None
    attempt = ctypes.CDLL(str(path)).dp5_robot_attempt
    attempt.argtypes = [ctypes.c_void_p] + [ctypes.c_double] * 3 + [ctypes.c_void_p] * 5
    attempt.restype = ctypes.c_int
    return attempt


def load_formatter():
    """The ``format_rows`` function of the CSV formatter, or None.

    ``format_rows(x, rows, cols, eol, n_eol, out, size)`` spells the
    row-major float64 table at address ``x`` into the ``size`` bytes at
    address ``out`` and returns the number of bytes written, or -1 where
    ``size`` is less than ``rows * (CELL_BYTES * cols + n_eol)``; see the
    source's header.
    """
    path = build(FORMATTER_SOURCE, CXX, CXX_FLAGS)
    if path is None:
        return None
    try:
        format_rows = ctypes.CDLL(str(path)).format_rows
    except OSError:  # e.g. an older libstdc++ already loaded into this process
        return None
    format_rows.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_char_p,
                            ctypes.c_long, ctypes.c_void_p, ctypes.c_long]
    format_rows.restype = ctypes.c_long
    return format_rows
