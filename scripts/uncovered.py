#!/usr/bin/env python3
"""List the lines of src/cmfix that a pytest selection never runs.

    python scripts/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process, with PYTEST_ARGS, under a ``sys.settrace``
line tracer that records only frames of ``src/cmfix``.  Then prints, per
module, the executable lines that no test reached, as ranges over the
module's executable lines, and a total.  A line is executable when the
compiled module maps an instruction to it; a module the selection never
imports is reported whole.  Only this process's main thread is traced, so
what tests run in subprocesses counts as not run.  Uses only the stdlib and
pytest; the exit status is pytest's.

The full Tier-1 suite takes about three times as long under the tracer as
without it.  The report is where a mutation list starts: a mutant on a line
no test runs survives by construction.
"""

import os
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmfix"


def executable_lines(path: Path) -> set[int]:
    """Every line the compiled module maps an instruction to."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts with an instruction at line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer; its exit code and the lines run."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    where: dict[str, str | None] = {}  # co_filename -> its real path in PACKAGE, or None
    run: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            run[where[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in where:
            real = os.path.realpath(name)
            where[name] = real if real.startswith(prefix) else None
        if where[name] is None:
            return None
        run.setdefault(where[name], set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), run


def ranges(lines: list[int], executable: list[int]) -> str:
    """lines as ranges that run over consecutive executable lines."""
    position = {line: i for i, line in enumerate(executable)}
    out = []
    for line in lines:
        if out and position[line] == position[out[-1][1]] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(run: dict[str, set[int]]) -> None:
    """Print the unreached lines of every module and their total."""
    total_missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = sorted(executable_lines(path))
        missed = [line for line in executable if line not in run.get(str(path), ())]
        total_missed += len(missed)
        total += len(executable)
        detail = f": {ranges(missed, executable)}" if missed else ""
        print(f"{path.relative_to(PACKAGE.parent)}: {len(missed)} of {len(executable)}"
              f" lines not run{detail}")
    print(f"total: {total_missed} of {total} executable lines not run")


def main() -> int:
    code, run = trace_pytest(sys.argv[1:])
    report(run)
    return code


if __name__ == "__main__":
    sys.exit(main())
