"""The four workloads: their seeded inputs, their CLI jobs and the checks
on each job's output.

A job is one `python -m orchardlab.cli ...` invocation.  Its id doubles as
the stem of its per-subcommand metric (`<id>_s`).  Every job writes its
report to a file, so the check can read it and the digest can pin it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import gen

DEFAULT_SEED = 0
JOB_TIMEOUT_S = 30
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

# Sizes, fixed so that one round of every workload takes 2-3 nominal-host
# seconds (see calibrate.py and README.md) and a 25 s run holds 5-7 rounds.
PRIME_Q = 101
PRIME_BOTH_SIZE = 150
PRIME_HASH_SIZE = 350
EXT_BOTH_FIELD = (5, 2)
EXT_BOTH_SIZE = 30
EXT_QUADRIC_FIELD = (3, 2)
EXT_QUADRIC_ON, EXT_QUADRIC_OFF = 30, 20
FLATTEN_M_MAX = 1
FLATTEN_ARGS = ["--field", "7", "--gen-count", "16", "--m-max", str(FLATTEN_M_MAX)]
BSG_COUNT = 150
BSG_ARGS = ["--field", "7", "--count", str(BSG_COUNT), "--max-support", "20", "--K", "2"]
EXAMPLE_BUILD = (5, 3)     # p, k of the configuration whose X1 triggers the census
EXAMPLE_VERIFY = (11, 2)
LEMMA_SUITES = ["commutator-formula", "segre-roundtrip", "fixed-point-classification"]


Check = Callable[[str], Optional[str]]


@dataclass
class Job:
    id: str
    args: List[str]
    outputs: List[str]
    check: Check


@dataclass
class Workload:
    name: str
    seeded: bool                 # False: the inputs ignore --seed
    fields: List[str]            # descriptors of every field the jobs use
    jobs: List[Job]
    # input file -> sha256, or the CLI seed of an input the program derives
    inputs: Dict[str, str] = dc_field(default_factory=dict)


# -- checks -------------------------------------------------------------------

def _load_json(work: str, name: str) -> dict:
    with open(os.path.join(work, name), encoding="utf-8") as fh:
        return json.load(fh)


def _triples_problem(doc: dict, field: gen.Field, sets) -> Optional[str]:
    """Compare a report's total and per-line counts with the reference."""
    want = gen.collinear_triples(field, *sets)
    got = {gen.parse_line_text(field, e["line"]): e["count"] for e in doc["by_line"]}
    if len(got) != len(doc["by_line"]):
        return "a line is listed twice in by_line"
    if doc["total"] != sum(want.values()):
        return f"total {doc['total']} != reference {sum(want.values())}"
    if got != want:
        return "per-line counts differ from the reference"
    return None


def threeplanes_check(report: str, pts: List[str], census: bool) -> Check:
    def check(work: str) -> Optional[str]:
        doc = _load_json(work, report)
        loaded = [gen.read_pts(os.path.join(work, p)) for p in pts]
        problem = _triples_problem(doc, loaded[0][0], [x for _, x in loaded])
        if problem:
            return problem
        c = doc["census"]
        if (c is not None) != census:
            return f"census is {c!r}, expected {'a census' if census else 'none'}"
        # the case split over-approximates, so every disagreement is a
        # flagged pair whose stabilizer is trivial
        if c and c["disagreements"] != c["closed_form_pairs"] - c["nontrivial_pairs"]:
            return "census disagreements != closed-form pairs - nontrivial pairs"
        return None
    return check


def quadric_check(report: str, field: gen.Field, X, S) -> Check:
    def check(work: str) -> Optional[str]:
        doc = _load_json(work, report)
        want = sum(gen.collinear_triples(field, X, X, S).values())
        if doc["total"] != want:
            return f"total {doc['total']} != reference {want}"
        for key, pts in (("max_line_x", X), ("max_line_s", S)):
            best = max(map(len, gen.line_points(field, pts).values()))
            if doc[key] != best:
                return f"{key} {doc[key]} != reference {best}"
        if doc["involution_checks"] != len(X) * len(S):
            return f"involution_checks {doc['involution_checks']} != {len(X) * len(S)}"
        return None
    return check


def flatten_check(out: str, m_max: int) -> Check:
    def check(work: str) -> Optional[str]:
        with open(os.path.join(work, out), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["m"]) for r in rows] != list(range(m_max + 1)):
            return f"expected rows m = 0..{m_max}, got {len(rows)} rows"
        l2 = [Fraction(r["l2_sq"]) for r in rows]
        for m, r in enumerate(rows):
            linf = Fraction(r["linf"])
            # a probability measure has linf^2 <= l2_sq <= linf <= 1
            if not 0 < linf * linf <= l2[m] <= linf <= 1:
                return f"row {m}: norms out of range"
            if m + 1 < len(rows) and Fraction(r["ratio_sq"]) != l2[m + 1] / l2[m]:
                return f"row {m}: ratio_sq is not l2_sq[m+1] / l2_sq[m]"
            if m and int(r["support"]) < int(rows[m - 1]["support"]):
                return f"row {m}: support shrank"
        return None
    return check


def bsg_check(out: str, count: int) -> Check:
    def check(work: str) -> Optional[str]:
        doc = _load_json(work, out)
        if doc["failures"]:
            return f"failures {doc['failures'][:5]}"
        if doc["count"] != count or len(doc["instances"]) != count:
            return f"expected {count} instances"
        if not all(i["pass"] for i in doc["instances"]):
            return "an instance did not pass"
        return None
    return check


def _floor_root(p: int, k: int) -> int:
    n = 1
    while (n + 1) ** k <= p:
        n += 1
    return n


def example_build_check(out: str, p: int, k: int) -> Check:
    size = (2 * _floor_root(p, k) + 1) * p

    def check(work: str) -> Optional[str]:
        doc = _load_json(work, out)
        if doc["sizes"] != {"x1": size, "x2": size, "x3": size}:
            return f"sizes {doc['sizes']}, expected {size} each"
        if doc["family_count"] != size * size:
            return f"family_count {doc['family_count']} != {size * size}"
        return None
    return check


def example_verify_check(out: str, p: int, k: int) -> Check:
    size = (2 * _floor_root(p, k) + 1) * p

    def check(work: str) -> Optional[str]:
        doc = _load_json(work, out)
        for key in ("all_collinear", "all_pairwise_distinct", "dichotomy_ok"):
            if doc[key] is not True:
                return f"{key} is {doc[key]!r}"
        if doc["family_count"] != size * size:
            return f"family_count {doc['family_count']} != {size * size}"
        return None
    return check


def lemma_check(out: str, suites: List[str]) -> Check:
    def check(work: str) -> Optional[str]:
        got = _load_json(work, out)["suites"]
        if sorted(got) != sorted(suites):
            return f"ran suites {sorted(got)}"
        bad = [name for name, r in got.items() if r["pass"] is not True]
        return f"suites failed: {bad}" if bad else None
    return check


# -- workloads ------------------------------------------------------------------

def _write(work: str, inputs: Dict[str, str], name: str, field, points) -> str:
    inputs[name] = gen.write_pts(os.path.join(work, name), field, points)
    return name


def _threeplanes_job(job_id, work, inputs, field, sets, tag, kernel) -> Job:
    pts = [_write(work, inputs, f"{tag}{i}.pts", field, x) for i, x in enumerate(sets, 1)]
    report = f"{tag}_report.json"
    args = ["orchard-threeplanes", "--x1", pts[0], "--x2", pts[1], "--x3", pts[2],
            "--kernel", kernel, "--report", report]
    return Job(job_id, args, [report], threeplanes_check(report, pts, census=False))


def prime_triples(seed: int, work: str) -> Workload:
    """Prime-field integer kernels and a large report; no census."""
    rng = random.Random(f"prime-triples/{seed}")
    field = gen.Field(PRIME_Q)
    inputs: Dict[str, str] = {}
    jobs = [
        _threeplanes_job("threeplanes_both", work, inputs, field,
                         gen.three_sets(field, rng, PRIME_BOTH_SIZE), "both", "both"),
        _threeplanes_job("threeplanes_hash", work, inputs, field,
                         gen.three_sets(field, rng, PRIME_HASH_SIZE), "hash", "hash"),
    ]
    return Workload("prime-triples", True, [field.descriptor()], jobs, inputs)


def ext_field(seed: int, work: str) -> Workload:
    """The generic F_(p^n) element path: triples over F_25, the Segre quadric over F_9."""
    rng = random.Random(f"ext-field/{seed}")
    f25 = gen.Field(*EXT_BOTH_FIELD)
    f9 = gen.Field(*EXT_QUADRIC_FIELD)
    inputs: Dict[str, str] = {}
    both = _threeplanes_job("threeplanes_both", work, inputs, f25,
                            gen.three_sets(f25, rng, EXT_BOTH_SIZE), "both", "both")
    X, S = gen.quadric_sets(f9, rng, EXT_QUADRIC_ON, EXT_QUADRIC_OFF)
    x = _write(work, inputs, "quadric_x.pts", f9, X)
    s = _write(work, inputs, "quadric_s.pts", f9, S)
    quadric = Job(
        "quadric",
        ["orchard-quadric", "--x", x, "--s", s, "--quadric", "segre",
         "--report", "quadric_report.json"],
        ["quadric_report.json"],
        quadric_check("quadric_report.json", f9, X, S),
    )
    return Workload("ext-field", True, [f25.descriptor(), f9.descriptor()], [both, quadric],
                    inputs)


def measures(seed: int, work: str) -> Workload:
    """Exact Fraction convolution over the affine group of F_7; the program
    draws the generators and measures itself from the seeds given here."""
    rng = random.Random(f"measures/{seed}")
    flatten_seed, bsg_seed = rng.randrange(10**6), rng.randrange(10**6)
    jobs = [
        Job("flatten",
            ["flatten", "--group", "affine", *FLATTEN_ARGS, "--seed", str(flatten_seed),
             "--out", "flatten.csv"],
            ["flatten.csv"], flatten_check("flatten.csv", FLATTEN_M_MAX)),
        Job("bsg_verify",
            ["bsg-verify", *BSG_ARGS, "--seed", str(bsg_seed), "--out", "bsg.json"],
            ["bsg.json"], bsg_check("bsg.json", BSG_COUNT)),
    ]
    return Workload("measures", True, ["7"], jobs,
                    {"flatten-seed": str(flatten_seed), "bsg-seed": str(bsg_seed)})


def identities(seed: int, work: str) -> Workload:
    """The census (the example's X1 lies on x0 = 0), constructions and the
    PGL reflection and fixed-point code; the same jobs for every seed."""
    p, k = EXAMPLE_BUILD
    vp, vk = EXAMPLE_VERIFY
    pts = [f"ex_x{i}.pts" for i in (1, 2, 3)]
    jobs = [
        Job("example_build",
            ["example-build", "--p", str(p), "--k", str(k), "--out-prefix", "ex_",
             "--out", "ex_manifest.json"],
            ["ex_manifest.json", *pts], example_build_check("ex_manifest.json", p, k)),
        Job("threeplanes_both",
            ["orchard-threeplanes", "--x1", pts[0], "--x2", pts[1], "--x3", pts[2],
             "--report", "ex_report.json"],
            ["ex_report.json"], threeplanes_check("ex_report.json", pts, census=True)),
        Job("example_verify",
            ["example-verify", "--p", str(vp), "--k", str(vk), "--out", "verify.json"],
            ["verify.json"], example_verify_check("verify.json", vp, vk)),
        Job("lemma_suite",
            ["lemma-suite", "--only", *LEMMA_SUITES, "--out", "lemmas.json"],
            ["lemmas.json"], lemma_check("lemmas.json", LEMMA_SUITES)),
    ]
    return Workload("identities", False, ["3", "5", "11", "3^2"], jobs)


WORKLOADS = {
    "prime-triples": prime_triples,
    "ext-field": ext_field,
    "measures": measures,
    "identities": identities,
}


def build(name: str, seed: int, work: str) -> Workload:
    return WORKLOADS[name](seed, work)


# -- judging one job's outcome ------------------------------------------------------

def output_digest(work: str, job: Job) -> str:
    h = hashlib.sha256()
    for name in job.outputs:
        h.update(name.encode() + b"\0")
        with open(os.path.join(work, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Judge:
    """Decides which runs of a workload's jobs failed.

    Each run is judged at once on its exit code, its standard error and
    whether its output reproduces the job's first run byte for byte.
    The full check (reference answers, invariants and the pinned digest
    where one applies) reads the output once, after the last run,
    because it builds large reference tables that would take time from
    the loop.  A wrong output fails every run that produced it.
    """

    def __init__(self, wl: Workload, seed: int, work: str):
        self.wl, self.work = wl, work
        self.first: Dict[str, str] = {}          # job id -> digest of its first run
        self.reproduced: Dict[str, list] = {}    # job id -> runs that matched it
        self.pinned: Dict[str, str] = {}
        if seed == DEFAULT_SEED or not wl.seeded:
            with open(PINNED_PATH, encoding="utf-8") as fh:
                self.pinned = json.load(fh).get(wl.name, {})

    def run_problem(self, job: Job, run, exit_code: Optional[int], stderr: str) -> Optional[str]:
        if exit_code is None:
            return "timed out"
        if "Traceback (most recent call last)" in stderr:
            return f"traceback: {stderr.strip().splitlines()[-1]}"
        if exit_code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {exit_code}: {last[0]}"
        try:
            digest = output_digest(self.work, job)
        except OSError as exc:
            return f"missing output: {exc}"
        if digest != self.first.setdefault(job.id, digest):
            return "output differs from the job's first run"
        self.reproduced.setdefault(job.id, []).append(run)
        return None

    def output_failures(self) -> List[dict]:
        failures = []
        for job in self.wl.jobs:
            runs = self.reproduced.get(job.id)
            problem = runs and self._output_problem(job)
            if problem:
                failures += [{"run": run, "job": job.id, "problem": problem} for run in runs]
        return failures

    def _output_problem(self, job: Job) -> Optional[str]:
        digest = output_digest(self.work, job)
        if digest != self.first[job.id]:
            return "the first output was overwritten by a different one"
        pin = self.pinned.get(job.id)
        if pin and pin != digest:
            return f"digest {digest[:12]} != pinned {pin[:12]}"
        try:
            return job.check(self.work)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
