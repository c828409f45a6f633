#!/usr/bin/env python3
"""One-command benchmark of the orchardlab CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prime-triples --seed 0 --seconds 25 --trace 0

With `--trace 0` it runs the workload's CLI jobs as a closed loop: one
job at a time, each in a fresh child process, from this one process and
with no threads, round after round until `--seconds` is used up.  It
reports the end-to-end metrics, in nominal-host seconds (see
calibrate.py).  With `--trace 1` it runs the same jobs in this process,
a fixed four rounds whatever `--seconds` says, with every layer wrapped
(see tracing.py), and reports the per-layer metrics.  Either way the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record (provenance, input digests, every sample) goes to
`.perfbench/results/`.  The exit code is 0 when every job's output was
correct, 1 when any was not, and 2 when the checkout cannot be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

SETUP_REPEATS = 5
MIN_ROUNDS = 3
# the loop stops early past `--seconds` plus this, so that a run that times
# out job after job still ends within the 180 s a run may take
OVERRUN_CAP_S = 60
HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATION = os.path.join(HERE, "calibrate.py")
JOB = os.path.join(HERE, "job.py")
# Wall and CPU seconds of calibrate.py on an idle 2-vCPU Xeon host.  Reported
# times are raw times scaled by this over the measured calibration time.
CALIBRATION_NOMINAL_S = 0.4

SETUP_CODE = (
    "import sys, orchardlab, orchardlab.cli\n"
    "from orchardlab.field import FieldCtx\n"
    "for d in sys.argv[1:]: FieldCtx.from_descriptor(d)\n"
    "print(orchardlab.__file__)\n"
)


class CheckoutError(Exception):
    """The checkout cannot be measured (no source, or an import elsewhere)."""


def spawn(cmd, cwd: str, env: dict, stem: str, timeout: float) -> dict:
    """Run one child to completion; returns its wall and CPU time, exit
    code (None on timeout), standard output and standard error."""
    out_path, err_path = stem + ".out", stem + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        timed_out = False
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": None if timed_out else proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
    }


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def around(before: dict, after: dict) -> dict:
    """The calibration for a sample taken between two calibration runs."""
    return {k: (before[k] + after[k]) / 2 for k in before}


def calibrate(work: str, env: dict) -> dict:
    r = spawn([sys.executable, CALIBRATION], work, env, os.path.join(work, "calibrate"),
              workloads.JOB_TIMEOUT_S)
    if r["exit"] != 0:
        raise CheckoutError(f"calibration failed: {r['stderr'].strip()[-400:]}")
    return {"wall_s": r["wall_s"], "cpu_s": r["cpu_s"]}


def setup_child(wl, work: str, env: dict, src: str):
    """One fresh import of orchardlab.cli plus one FieldCtx per field of
    the workload; returns its wall time and the imported module file,
    which must be the checkout's own."""
    r = spawn([sys.executable, "-c", SETUP_CODE, *wl.fields], work, env,
              os.path.join(work, "setup"), workloads.JOB_TIMEOUT_S)
    if r["exit"] != 0:
        raise CheckoutError(f"cannot import orchardlab.cli: {r['stderr'].strip()[-400:]}")
    module = os.path.realpath(r["stdout"].strip())
    if not module.startswith(os.path.realpath(src) + os.sep):
        raise CheckoutError(f"imported {module}, not the checkout's {src}")
    return r["wall_s"], module


def measure_setup(wl, work: str, env: dict, src: str):
    """SETUP_REPEATS timed set-up children, after one unmeasured warm-up
    so that byte-compiling a fresh checkout is not counted.  Returns the
    samples, the imported module file and the last calibration."""
    _, module = setup_child(wl, work, env, src)
    cal = calibrate(work, env)
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, _ = setup_child(wl, work, env, src)
        after = calibrate(work, env)
        samples.append({"wall_s": wall, "calibration": around(cal, after)})
        cal = after
    return samples, module, cal


def run_job(job, work: str, env: dict) -> dict:
    """One job in a fresh child, through job.py, which reports the job's
    own peak RSS (None if the job was killed before it could)."""
    peak_file = os.path.join(work, job.id + ".peak")
    if os.path.exists(peak_file):
        os.remove(peak_file)
    r = spawn([sys.executable, JOB, peak_file, *job.args], work, env,
              os.path.join(work, job.id), workloads.JOB_TIMEOUT_S)
    try:
        with open(peak_file, encoding="ascii") as fh:
            r["rss_mb"] = int(fh.read()) / 1024
    except (OSError, ValueError):
        r["rss_mb"] = None
    return r


def closed_loop(wl, work: str, env: dict, judge, seconds: float, cal: dict) -> dict:
    """Rounds of every job in order, each in a fresh child, until the next
    round would overrun `seconds` (at least MIN_ROUNDS rounds, unless
    jobs hang).  A calibration run follows each round."""
    rounds, failures = [], []
    t0 = time.perf_counter()
    while True:
        runs = {}
        for job in wl.jobs:
            r = run_job(job, work, env)
            problem = judge.run_problem(job, len(rounds), r["exit"], r["stderr"])
            if problem:
                failures.append({"run": len(rounds), "job": job.id, "problem": problem})
            runs[job.id] = {k: r[k] for k in ("wall_s", "cpu_s", "rss_mb", "exit")}
        after = calibrate(work, env)
        rounds.append({"jobs": runs, "calibration": around(cal, after)})
        cal = after
        elapsed = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
        if elapsed > seconds + OVERRUN_CAP_S:
            break
    failures += judge.output_failures()
    return {"rounds": rounds, "failures": failures}


def scaled(seconds: float, sample: dict, key: str = "wall_s") -> float:
    """A raw time in nominal-host seconds, by the calibration run beside it."""
    return seconds * CALIBRATION_NOMINAL_S / sample["calibration"][key]


def summary(xs: list) -> dict:
    return {"median": statistics.median(xs), "min": min(xs), "max": max(xs), "n": len(xs)}


def sample_tables(wl, loop: dict, setup: list):
    """Per-sample end-to-end times and per-subcommand wall times, each
    summarized as median, min, max and sample count (nominal-host seconds)."""
    rounds = loop["rounds"]
    e2e = {
        "wall_s": summary([scaled(sum(r["wall_s"] for r in rnd["jobs"].values()), rnd)
                           for rnd in rounds]),
        "cpu_s": summary([scaled(sum(r["cpu_s"] for r in rnd["jobs"].values()), rnd, "cpu_s")
                          for rnd in rounds]),
        "setup_s": summary([scaled(x["wall_s"], x) for x in setup]),
    }
    jobs = {f"{job.id}_s": summary([scaled(rnd["jobs"][job.id]["wall_s"], rnd) for rnd in rounds])
            for job in wl.jobs}
    return e2e, jobs


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "orchardlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, src: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, v in rows.items():
        if "median" in v:
            print(f"  {name:28s} median {v['median']:.4f} s  min {v['min']:.4f}  "
                  f"max {v['max']:.4f}  n={v['n']}")
        else:
            print(f"  {name:28s} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orchardlab", "cli.py")):
        print(f"error: {root} holds no src/orchardlab/cli.py to measure", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}")
    results = os.path.join(root, ".perfbench", "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)

    record = {"provenance": provenance(root, src, args)}
    wl = workloads.build(args.workload, args.seed, work)
    record["inputs"] = wl.inputs
    env = child_env(src)
    try:
        if args.trace:      # setup_s is not reported; only the module check is needed
            setup, (_, module) = [], setup_child(wl, work, env, src)
        else:
            setup, module, cal = measure_setup(wl, work, env, src)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["provenance"]["module_file"] = module
    judge = workloads.Judge(wl, args.seed, work)

    if args.trace:
        import tracing

        traced = tracing.traced_run(wl, work, src, judge)
        metrics = traced["metrics"]
        failures = traced["failures"]
        attempted = traced["attempted"]
        record["trace"] = {k: v for k, v in traced.items()
                           if k not in ("spans", "metrics", "failures")}
        with open(os.path.join(results, f"{args.workload}-seed{args.seed}-spans.json"), "w") as fh:
            json.dump(traced["spans"], fh)
    else:
        loop = closed_loop(wl, work, env, judge, args.seconds, cal)
        failures = loop["failures"]
        attempted = sum(len(rnd["jobs"]) for rnd in loop["rounds"])
        record["end_to_end"], record["jobs"] = sample_tables(wl, loop, setup)
        metrics = {k: {"value": v["median"], "unit": "s"} for k, v in record["end_to_end"].items()}
        peak = max(r["rss_mb"] or 0 for rnd in loop["rounds"] for r in rnd["jobs"].values())
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        record["rounds"] = loop["rounds"]
    record.update(setup_samples=setup, failures=failures, metrics=metrics,
                  digests=judge.first,
                  runner_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    prov = record["provenance"]
    print(f"{args.workload} seed {args.seed}: python {prov['python']}, nproc {prov['nproc']}, "
          f"{prov['cpu_model']}, load {prov['loadavg_start'][0]:.2f}, module {module}")
    inputs = json.dumps(wl.inputs, sort_keys=True).encode()
    print(f"inputs sha256 {hashlib.sha256(inputs).hexdigest()}")
    if not args.trace:
        print_table("end-to-end samples, nominal-host s", record["end_to_end"])
        print_table("per-subcommand wall time, nominal-host s, one sample per round", record["jobs"])
    print_table("metrics", metrics)
    print(f"  {'fail_frac':28s} {len(failures)}/{attempted} ratio")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
