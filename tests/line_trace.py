"""Lines of src/orchardlab that the tier-1 suite never runs.

Runs pytest in this process under a line tracer (`sys.settrace` and
`threading.settrace`) that watches only the frames of src/orchardlab's
files, with hypothesis derandomized and its example database off, so
that one tree always gives the same lines.  Then prints each executable
line (a line the compiled code maps an instruction to) that never ran,
as `path:line: source`, and a one-line summary that names the tests that
failed under tracing.  Lines that only the suite's child processes run
(such as `sys.exit(main())` under `__main__`) are listed too: the
children are not traced.

Tracing slows each kernel by its own factor, so a test that gates a
ratio of wall-clock times can fail here and pass untraced: criterion
9's brute/hash speed gate is one (its hash kernel spends more of its
time on traced Python lines).  Such a failure says nothing about the
lines; the summary names it so that it can be told from a real one.

Stdlib only, besides pytest and hypothesis, which the suite needs
anyway.  pytest does not collect this file (its name does not start with
`test_`).  Tracing makes the suite some six times slower, about five
minutes on a 2-vCPU host.

Usage, from the root of a checkout (pytest arguments default to
tier-1's):

    python3 tests/line_trace.py [pytest arguments]
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orchardlab"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]


def executable_lines(path: Path) -> set:
    """The lines of a source file that its code objects map instructions to."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class FailedTests:
    """A pytest plugin that keeps the node ids of the failed tests."""

    def __init__(self):
        self.nodeids = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.nodeids:
            self.nodeids.append(report.nodeid)


def traced_run(pytest_args) -> tuple:
    """(pytest's exit code, the set of (file name, line) that ran in src/,
    the node ids of the tests that failed)."""
    import pytest
    from hypothesis import settings

    settings.register_profile("line-trace", derandomize=True, database=None)
    settings.load_profile("line-trace")
    src = str(SRC)
    watched = {}                # co_filename -> whether it is under src/orchardlab
    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = watched.get(name)
        if inside is None:
            inside = watched[name] = os.path.dirname(os.path.realpath(name)) == src
        return on_line if inside else None

    failed = FailedTests()
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(list(pytest_args), plugins=[failed])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {(os.path.realpath(name), line) for name, line in ran}, failed.nodeids


def main(argv) -> int:
    code, ran, failed = traced_run(argv or TIER1)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/orchardlab never ran "
          f"(pytest exit code {int(code)}; failed under tracing: "
          f"{', '.join(failed) or 'none'})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
