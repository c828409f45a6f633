"""Lines of src/orchardlab that the tier-1 suite never runs.

Runs pytest in this process under a line tracer (`sys.settrace` and
`threading.settrace`) that watches only the frames of src/orchardlab's
files, with hypothesis derandomized and its example database off, so
that one tree always gives the same lines.  Then prints each executable
line (a line the compiled code maps an instruction to) that never ran,
as `path:line: source`, and a one-line summary that names the tests that
failed under tracing.  The lines under `if TYPE_CHECKING:` (read by type
checkers only) and under `if __name__ == "__main__":` (run only when the
module is a script, which the suite does in child processes, and those
are not traced) are not run by design: they are listed apart, each with
its reason, and the summary's miss count leaves them out.  The exit
status is 1 while any other line never ran, else 0.

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

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orchardlab"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]


# the test of an `if` statement, as `ast.unparse` writes it -> why the
# lines of its body never run in the traced process
BY_DESIGN = {
    "TYPE_CHECKING": "read by type checkers only",
    "__name__ == '__main__'": "run only when the module is a script",
}


def not_run_by_design(source: str) -> dict:
    """{line: reason} for each line of a source text in the body of an
    `if` whose test is in BY_DESIGN (its `else` branch is not)."""
    lines = {}
    for node in ast.walk(ast.parse(source)):
        reason = isinstance(node, ast.If) and BY_DESIGN.get(ast.unparse(node.test))
        if reason:
            lines.update(dict.fromkeys(
                range(node.body[0].lineno, node.body[-1].end_lineno + 1), reason))
    return lines


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
    total, missed, by_design = 0, [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text, design = source.splitlines(), not_run_by_design(source)
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in ran:
                entry = f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
                if line in design:
                    by_design.append(f"{entry}  ({design[line]})")
                else:
                    missed.append(entry)
    for entry in missed:
        print(entry)
    print(f"not run by design ({len(by_design)} lines):")
    for entry in by_design:
        print(f"  {entry}")
    print(f"{len(missed)} of {total} executable lines in src/orchardlab never ran, "
          f"besides {len(by_design)} not run by design "
          f"(pytest exit code {int(code)}; failed under tracing: "
          f"{', '.join(failed) or 'none'})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
