"""Opt-in line trace of ``src/caslite``: which executable lines the suite
never runs.

Load it by name; the suite never loads it by itself::

    PYTHONPATH=src:tests python -m pytest -p linetrace

Every thread's executed lines in the package are recorded with
``sys.settrace`` and ``threading.settrace`` from before the first conftest
is loaded, so import-time lines count. The executable lines are those the
compiled code of each module maps an instruction to. At the end of the run
each module's lines that never ran are listed as ranges. Code run in a
child process, such as a service started with ``python -m``, is not seen.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("caslite").submodule_search_locations[0])
_ROOT = str(PACKAGE) + "/"
_ran: set = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_ROOT) else None


def executable_lines(path: Path) -> set:
    """The lines of ``path`` that some instruction of its code maps to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def ranges(lines: list) -> str:
    """Sorted ``lines`` as ``a-b`` runs of consecutive numbers."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("lines of src/caslite never run")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in _ran)
        terminalreporter.write_line(
            f"{path.name}: {len(missed)} of {len(lines)}" + (f": {ranges(missed)}" if missed else ""))
