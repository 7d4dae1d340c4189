#!/usr/bin/env python3
"""Print the code sizes that ROADMAP.md tracks.

A Python count is of the non-blank lines that are not ``#`` comments
(docstrings count); a C count is of all its lines. The package's Python is
counted without the generated ``_task_space.py``, with its modules largest
first; the generated module is counted on a line of its own.

    python scripts/count_lines.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otbot"
GENERATOR = ROOT / "scripts" / "gen_task_space.py"


def code_lines(path: Path) -> int:
    """The non-blank lines of a Python file that are not ``#`` comments."""
    return sum(1 for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    modules = {p.stem: code_lines(p) for p in PACKAGE.glob("*.py") if p.name != "_task_space.py"}
    print(f"src/otbot hand-written Python, without _task_space.py: {sum(modules.values())}")
    for name, count in sorted(modules.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name} {count}")
    print(f"{GENERATOR.relative_to(ROOT)}: {code_lines(GENERATOR)}")
    print(f"src/otbot/_task_space.py (generated Python): {code_lines(PACKAGE / '_task_space.py')}")
    for name, kind in (("_csv_format.c", "hand-written"), ("_dp5_robot.c", "generated")):
        print(f"src/otbot/{name} ({kind} C): {len((PACKAGE / name).read_text().splitlines())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
