#!/usr/bin/env python3
"""Print every statement of src/confpara that the Tier-1 suite never runs.

Runs pytest on ``tests/`` in this process under a ``sys.settrace`` line
tracer, using the standard library only (no coverage package).  It prints
to stdout one ``file:line  source`` line per statement of ``src/confpara``
that never ran, in file and line order; pytest's report and the count go to
stderr.  A statement is a line that starts an ``ast`` statement and carries
bytecode, so ``else:``, docstrings and the continuation lines of a long
statement are not listed.  Arguments, if any, go to pytest in place of
``tests/``, to trace part of the suite.  The tracer makes the suite several
times slower than a plain run.  The exit status is pytest's.

Usage: ``python3 scripts/unreached_lines.py [pytest arguments]``.
"""

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "confpara"


def _code_lines(code):
    """Lines that carry bytecode in ``code`` or in the code nested in it."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def statement_lines(path, source):
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def main(argv):
    files = sorted(PACKAGE.glob("*.py"))
    ran = {str(path): set() for path in files}
    by_name = {}  # co_filename -> its set in ``ran``, or None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        lines = by_name[name]
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    if any(name == "confpara" or name.startswith("confpara.") for name in sys.modules):
        raise SystemExit("confpara is already imported; its module lines would go unseen")
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the listing only
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(statement_lines(path, source) - ran[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements never ran", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
