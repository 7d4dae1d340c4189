"""Build and load ``_dp5_robot.c``, the robot's DP5 attempt in C.

The library is compiled on first use, never at import, with the system C
compiler (``cc``) and these flags:

- ``-ffp-contract=off`` and ``-fno-fast-math`` keep every multiply and add
  a separately rounded double operation, in the order the source gives;
- ``-fno-builtin`` keeps ``sin`` and ``cos`` as calls into the same libm
  that Python's ``math`` calls, with no fused ``sincos``.

So the compiled attempt computes the same bits as the Python kernel. The
library is cached in ``$XDG_CACHE_HOME/otbot`` (default ``~/.cache/otbot``)
under the SHA-256 of the source and the flags. It is written to a temporary
name and moved into place, so concurrent processes may build it at once.
Where the cache directory cannot be written, it is built into a temporary
directory of this process. Without a working compiler :func:`load` returns
None and the integrator runs the Python kernel.
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


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "otbot"


def _process_dir() -> Path:
    path = tempfile.mkdtemp(prefix="otbot-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)


def build() -> Path | None:
    """Path of the compiled library, compiled now if it is not cached.

    None if there is no compiler or it fails on the source.
    """
    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()
    name = f"dp5_robot-{key[:24]}.so"
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
            done = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"], capture_output=True
            )
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
    path = build()
    if path is None:
        return None
    attempt = ctypes.CDLL(str(path)).dp5_robot_attempt
    attempt.argtypes = [ctypes.c_void_p] + [ctypes.c_double] * 3 + [ctypes.c_void_p] * 5
    attempt.restype = ctypes.c_int
    return attempt
