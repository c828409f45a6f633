"""Runs one orchardlab CLI job, as `python -m orchardlab.cli` would, and
records the job's own peak resident set size.

    python3 perfbench/job.py <peak-file> <subcommand> [args...]

At exit, whether the job returned, exited or raised, it writes the
`VmHWM` line of /proc/self/status (in KiB) to <peak-file>.  The parent's
`wait4` cannot give this figure: Linux carries the parent's high-water
RSS into the child's `ru_maxrss` across fork and exec, so a child's
`ru_maxrss` is never below its parent's.  `VmHWM` belongs to the address
space made at exec, so it counts the job alone.
"""

import os
import runpy
import sys


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    peak_file = sys.argv[1]
    # what `python -m` does: the working directory first on sys.path, not
    # this file's directory
    sys.path[0] = os.getcwd()
    sys.argv = ["orchardlab.cli", *sys.argv[2:]]
    try:
        runpy.run_module("orchardlab.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(f"{peak_kib()}\n")
