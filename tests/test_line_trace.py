"""The line trace's split of the lines tier-1 never runs: the bodies of
`if TYPE_CHECKING:` and `if __name__ == "__main__":` are not run by
design, and every other line counts as a miss."""

import line_trace
from line_trace import BY_DESIGN, not_run_by_design

SOURCE = '''\
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction
    from .groups import (
        PGLElem,
    )


def main():
    if TYPE_CHECKING:
        import os
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
else:
    main()
if __name__ == "orchardlab.cli":
    main()
'''


def test_lines_under_type_checking_and_main_are_not_run_by_design():
    types, script = BY_DESIGN["TYPE_CHECKING"], BY_DESIGN["__name__ == '__main__'"]
    assert not_run_by_design(SOURCE) == {
        4: types, 5: types, 6: types, 7: types,
        12: types,
        17: script, 18: script, 19: script,
    }


def test_main_exits_1_while_a_line_never_ran(monkeypatch, capsys):
    every = {(str(path), line) for path in line_trace.SRC.glob("*.py")
             for line in line_trace.executable_lines(path)}
    monkeypatch.setattr(line_trace, "traced_run", lambda args: (0, set(), []))
    assert line_trace.main([]) == 1
    monkeypatch.setattr(line_trace, "traced_run", lambda args: (0, every, []))
    assert line_trace.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("0 of ")
