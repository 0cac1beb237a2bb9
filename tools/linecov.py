"""Line coverage of ``src/netshaper`` under a pytest run, with the stdlib only.

Usage (from the repository root):

    python tools/linecov.py [PYTEST_ARGS ...]

With no arguments it runs ``pytest -q tests``. A ``sys.settrace`` and
``threading.settrace`` hook records every line run in the package's files,
in this process and its threads (not in subprocesses). Afterwards each file
is printed with its count of executable lines, the count never run, and
those line numbers. Executable lines are the line numbers of the compiled
bytecode, so ``except`` clauses and other paths that only run on an error
count as unrun until a test takes them. The exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "netshaper") + os.sep

hits: dict[str, set[int]] = defaultdict(set)


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    seen = hits[frame.f_code.co_filename]
    seen.add(frame.f_lineno)

    def local(frame, event, arg):
        seen.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def report() -> None:
    for dirpath, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            unrun = sorted(lines - hits.get(path, set()))
            rel = os.path.relpath(path, ROOT)
            print(f"{rel}: {len(lines)} executable, {len(unrun)} unrun" + (f": {_ranges(unrun)}" if unrun else ""))


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report()
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
