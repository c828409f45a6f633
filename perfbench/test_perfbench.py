"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Workload  # noqa: E402


@pytest.fixture
def work(request):
    path = os.path.join(ROOT, ".perfbench", "test", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _rank_le_2(field, u, v, w) -> bool:
    """All 3x3 minors of the stacked vectors vanish; independent of gen's line key."""
    mul, sub = field.mul, field.sub

    def add(a, b):
        return sub[a][sub[0][b]]

    def det3(a, b, c):
        t0 = mul[a[0]][sub[mul[b[1]][c[2]]][mul[b[2]][c[1]]]]
        t1 = mul[a[1]][sub[mul[b[0]][c[2]]][mul[b[2]][c[0]]]]
        t2 = mul[a[2]][sub[mul[b[0]][c[1]]][mul[b[1]][c[0]]]]
        return add(sub[t0][t1], t2)

    return all(
        det3(*[[x[i] for i in cols] for x in (u, v, w)]) == 0
        for cols in itertools.combinations(range(4), 3)
    )


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
def test_reference_triples_match_a_rank_test(p, n):
    field = gen.Field(p, n)
    rng = random.Random(3)
    X1, X2, X3 = gen.three_sets(field, rng, 12)
    X2 = X2[:6] + X1[:3]      # overlaps exercise the distinctness rule
    want = sum(
        1 for u in X1 for v in X2 for w in X3
        if len({u, v, w}) == 3 and _rank_le_2(field, u, v, w)
    )
    assert sum(gen.collinear_triples(field, X1, X2, X3).values()) == want


def test_generator_is_deterministic_and_writes_canonical_points(work):
    a = workloads.build("ext-field", 4, work)
    b = workloads.build("ext-field", 4, work)
    c = workloads.build("ext-field", 5, work)
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
    field, points = gen.read_pts(os.path.join(work, "quadric_x.pts"))
    assert field.descriptor() == "3^2/1,0,1"
    for x in points:
        pivot = next(c for c in x if c)
        assert pivot == 1
        assert field.mul[x[0]][x[3]] == field.mul[x[1]][x[2]]


def _defect_workload() -> Workload:
    defect = Job(
        "flatten",
        ["flatten", "--field", "11", "--gen-count", "2", "--m-max", "12", "--seed", "1",
         "--out", "defect.csv"],
        ["defect.csv"],
        workloads.flatten_check("defect.csv", 12),
    )
    good = Job(
        "lemma_suite",
        ["lemma-suite", "--only", "segre-roundtrip", "--out", "lemmas.json"],
        ["lemmas.json"],
        workloads.lemma_check("lemmas.json", ["segre-roundtrip"]),
    )
    return Workload("defect", False, ["11"], [defect, good])


def test_uncaught_exception_is_one_failed_job_per_run(work):
    # flatten at m-max 12 over F_11 exceeds Python's int-to-str digit limit
    # and exits 1 with a traceback; the loop must count it and go on.
    wl = _defect_workload()
    judge = workloads.Judge(wl, 0, work)
    env = run.child_env(SRC)
    loop = run.closed_loop(wl, work, env, judge, 0, run.calibrate(work, env))
    rounds = len(loop["rounds"])
    assert rounds == run.MIN_ROUNDS
    assert [f["job"] for f in loop["failures"]] == ["flatten"] * rounds
    assert all("ValueError" in f["problem"] for f in loop["failures"])
    assert all(r["jobs"]["lemma_suite"]["exit"] == 0 for r in loop["rounds"])


def test_peak_rss_is_the_jobs_own(work):
    # A child's ru_maxrss is never below its parent's peak, so reporting
    # it would show the parent's memory.  With 96 MiB of ballast here, a
    # small job must still report a peak far below this process's.
    ballast = b"\1" * (96 << 20)
    wl = _defect_workload()
    wl.jobs = wl.jobs[1:]
    env = run.child_env(SRC)
    loop = run.closed_loop(wl, work, env, workloads.Judge(wl, 0, work), 0,
                           run.calibrate(work, env))
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peaks = [rnd["jobs"]["lemma_suite"]["rss_mb"] for rnd in loop["rounds"]]
    assert loop["failures"] == []
    assert all(5 < peak < parent_mb - 64 for peak in peaks), (peaks, parent_mb)
    del ballast


def test_wrong_report_is_caught(work):
    wl = workloads.build("ext-field", 1, work)
    wl.jobs = [j for j in wl.jobs if j.id == "quadric"]
    judge = workloads.Judge(wl, 1, work)
    env = run.child_env(SRC)
    r = run.spawn([sys.executable, "-m", "orchardlab.cli", *wl.jobs[0].args], work, env,
                  os.path.join(work, "quadric"), 60)
    assert judge.run_problem(wl.jobs[0], 0, r["exit"], r["stderr"]) is None
    assert judge.output_failures() == []
    report = os.path.join(work, "quadric_report.json")
    with open(report) as fh:
        doc = json.load(fh)
    doc["total"] += 2
    with open(report, "w") as fh:
        json.dump(doc, fh)
    judge = workloads.Judge(wl, 1, work)
    assert judge.run_problem(wl.jobs[0], 0, 0, "") is None
    [failure] = judge.output_failures()
    assert "reference" in failure["problem"]


def test_traced_counts_repeat_across_runs(work):
    jobs = workloads.identities(0, work).jobs[:2]     # example-build, then the census
    wl = Workload("small", False, [], jobs)
    first = tracing.traced_run(wl, work, SRC, workloads.Judge(wl, 0, work))
    second = tracing.traced_run(wl, work, SRC, workloads.Judge(wl, 0, work))
    assert first["failures"] == [] and second["failures"] == []
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] != "s"}
    counts.pop("trace.coverage"), again.pop("trace.coverage")
    assert counts == again
    # counts are per traced round: one census over the 15-point X1, three files loaded
    assert counts["incidence.census_pairs"] == 15 ** 2
    assert counts["projgeom.points_loaded"] == 3 * 15


def test_incidence_counts_are_the_kernels_work(work):
    # three disjoint 8-point sets over F_101, one `--kernel both` job and
    # one `--kernel hash` job: the brute kernel tests 8^3 triples, and the
    # hash kernel keys 2 * 8^2 pairs per job
    field = gen.Field(101)
    sets = gen.three_sets(field, random.Random(7), 8)
    inputs = {}
    jobs = [workloads._threeplanes_job(f"threeplanes_{k}", work, inputs, field, sets, k, k)
            for k in ("both", "hash")]
    wl = Workload("small", False, [], jobs)
    traced = tracing.traced_run(wl, work, SRC, workloads.Judge(wl, 0, work))
    assert traced["failures"] == []
    counts = {k: v["value"] for k, v in traced["metrics"].items()}
    found = sum(gen.collinear_triples(field, *sets).values())
    assert counts["incidence.triples_tested"] == 8 ** 3
    assert counts["incidence.triples_found"] == found
    # per job, line_concentration keys the 8 * 7 / 2 pairs of each set;
    # the brute kernel keys each X1 x X2 pair whose line meets X3
    lines = gen.collinear_triples(field, *sets)
    X1, X2, _ = sets
    hit_pairs = sum(1 for u in X1 for v in X2 if gen.line_key(field, u, v) in lines)
    assert counts["incidence.pairs_keyed"] == 2 * (2 * 8 ** 2 + 3 * 28) + hit_pairs


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [unit for _, unit in tracing.PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
