#!/usr/bin/env python3
"""Print the code sizes that ROADMAP.md tracks.

A Python count is of the non-blank lines that are not ``#`` comments
(docstrings count); a C count is of all its lines. The package's Python is
counted without the generated modules (:data:`GENERATED`), with its modules
largest first; each generated module is counted on a line of its own, and
so is the hand-written C that the generator carries (its ``_LOOP``), by
non-blank lines.

    python scripts/count_lines.py

Output cut short by the reader (``count_lines.py | head -1``) ends the
script quietly.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otbot"
GENERATOR = ROOT / "scripts" / "gen_task_space.py"
# the Python modules and the C that GENERATOR writes
GENERATED = ("_task_space.py", "_task_sensitivity.py")
GENERATED_C = "_dp5_robot.c"


def code_lines(path: Path) -> int:
    """The non-blank lines of a Python file that are not ``#`` comments."""
    return sum(1 for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def loop_lines() -> int:
    """The non-blank lines of the generator's hand-written C, its ``_LOOP`` string."""
    loop = next(n.value.value for n in ast.parse(GENERATOR.read_text()).body
                if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "_LOOP")
    return sum(1 for line in loop.splitlines() if line.strip())


def main() -> int:
    modules = {p.stem: code_lines(p) for p in PACKAGE.glob("*.py") if p.name not in GENERATED}
    print(f"src/otbot hand-written Python, without the generated modules: {sum(modules.values())}")
    for name, count in sorted(modules.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name} {count}")
    print(f"{GENERATOR.relative_to(ROOT)}: {code_lines(GENERATOR)}")
    print(f"{GENERATOR.relative_to(ROOT)} _LOOP (hand-written C): {loop_lines()}")
    for name in GENERATED:
        print(f"src/otbot/{name} (generated Python): {code_lines(PACKAGE / name)}")
    for path in sorted(PACKAGE.glob("*.c")):
        kind = "generated" if path.name == GENERATED_C else "hand-written"
        print(f"src/otbot/{path.name} ({kind} C): {len(path.read_text().splitlines())} lines")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # raises no second BrokenPipeError (the Python docs' SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
